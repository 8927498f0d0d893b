"""Acceptance runs: every release criterion at its stated tolerance.

Each test prints a single scoreboard line (bypassing output capture) and
then asserts, so `pytest -v` shows one PASS/FAIL per criterion with the
measured numbers inline.
"""

import filecmp
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from cusp_induce import critical_orbit as co
from cusp_induce import density as de
from cusp_induce import distortion as di
from cusp_induce import expr as ex
from cusp_induce import hyperbolicity as hy
from cusp_induce import inducing as ind
from cusp_induce.cli import _DELTA_LADDER


def report(capsys, idx, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[acceptance {idx}] {name}: {verdict} ({detail})")


# --------------------------------------------------------------- criterion 1


def generated_expressions(rng):
    """20 deterministic expressions over the full grammar, with their kinks."""
    out = []

    def c(lo, hi):
        return repr(round(float(rng.uniform(lo, hi)), 3))

    for _ in range(5):
        src = f"(({c(-3, 3)})*x + ({c(-3, 3)}))*x^2 + ({c(-3, 3)})*x + ({c(-3, 3)})"
        out.append((src, []))
    for _ in range(5):
        src = f"(({c(-3, 3)})*x^2 + ({c(-3, 3)})) / (x^2 + ({c(2, 4)}))"
        out.append((src, []))
    for _ in range(5):
        t = round(float(rng.uniform(-0.5, 0.5)), 3)
        r = round(float(rng.uniform(1.4, 2.6)), 3)
        src = f"({c(-2, 2)})*abs(x - ({t!r}))^({r!r}) + ({c(-2, 2)})*x"
        out.append((src, [t]))
    for _ in range(5):
        t = round(float(rng.uniform(-0.5, 0.5)), 3)
        src = f"sign(x - ({t!r}))*(x - ({t!r}))^2 + ({c(-2, 2)})*x^2"
        out.append((src, [t]))
    return out


def fd_first(f, x, h=1e-4):
    d = (f(x + h) - f(x - h)) / (2 * h)
    d_half = (f(x + h / 2) - f(x - h / 2)) / h
    return (4 * d_half - d) / 3.0


def fd_second(f, x, h=1e-3):
    def stencil(hh):
        return (f(x + hh) - 2 * f(x) + f(x - hh)) / (hh * hh)

    return (4 * stencil(h / 2) - stencil(h)) / 3.0


def test_criterion_1_jets_match_finite_differences(capsys):
    rng = np.random.default_rng(20260815)
    t0 = time.perf_counter()
    worst_d1 = 0.0
    worst_d2 = 0.0
    for src, kinks in generated_expressions(rng):
        forms = ex.compile(ex.parse(src))
        f = forms.value

        pts = []
        while len(pts) < 100:
            x = float(rng.uniform(-2, 2))
            if all(abs(x - t) >= 0.05 for t in kinks):
                pts.append(x)
        for x in pts:
            jet = forms.jet(x)
            e1 = abs(jet.d1 - fd_first(f, x)) / max(1.0, abs(jet.d1))
            e2 = abs(jet.d2 - fd_second(f, x)) / max(1.0, abs(jet.d2))
            worst_d1 = max(worst_d1, e1)
            worst_d2 = max(worst_d2, e2)
    elapsed = time.perf_counter() - t0
    ok = worst_d1 <= 1e-6 and worst_d2 <= 1e-4 and elapsed < 5.0
    report(capsys, 1, "jets vs finite differences, 20 exprs x 100 pts", ok,
           f"worst d1 {worst_d1:.2e} <= 1e-6, worst d2 {worst_d2:.2e} "
           f"<= 1e-4, {elapsed:.2f}s < 5s")
    assert ok


# --------------------------------------------------------------- criterion 2


def test_criterion_2_quadratic_closed_forms(capsys, cheb):
    t0 = time.perf_counter()
    records = co.orbit_records(cheb, 200)
    rec = records[(0.0, "+")]
    worst_d = max(abs(rec.D_at(n) - 4.0**n) / 4.0**n for n in range(1, 21))
    gamma_err = abs(rec.gamma[2] - 4.0 ** (-2.0 / 3.0))
    partials_zero = bool(np.all(np.cumsum(rec.star_terms) == 0.0))
    lam_err = abs(co.growth_fit(rec).lambda_hat - math.log(4.0))
    elapsed = time.perf_counter() - t0
    ok = (worst_d <= 1e-9 and gamma_err <= 1e-12 and partials_zero
          and lam_err <= 1e-6 and elapsed < 1.0)
    report(capsys, 2, "derivative products / tube radius / growth rate", ok,
           f"max rel D_n err {worst_d:.1e} <= 1e-9, gamma_3 err "
           f"{gamma_err:.1e} <= 1e-12, partial sums all zero: "
           f"{partials_zero}, lambda err {lam_err:.1e} <= 1e-6, "
           f"{elapsed:.2f}s < 1s")
    assert ok


# --------------------------------------------------------------- criterion 3


def test_criterion_3_binding_period_exactness(capsys, cheb, cheb_records,
                                              lorenz, lorenz_records):
    t0 = time.perf_counter()
    p_cheb = ind.binding_period(cheb, 0.1, delta=0.2,
                                records=cheb_records).p
    rng = np.random.default_rng(42)
    xs = rng.uniform(-0.2, 0.2, 1200)
    xs = xs[xs != 0.0][:1000]
    ps = {ind.binding_period(lorenz, float(x), delta=0.2,
                             records=lorenz_records).p for x in xs}
    elapsed = time.perf_counter() - t0
    ok = p_cheb == 4 and ps == {1} and len(xs) == 1000 and elapsed < 1.0
    report(capsys, 3, "binding periods: p=4 at x=0.1, cusp family p=1", ok,
           f"p(0.1)={p_cheb} (want 4), cusp periods over 1000 points "
           f"{sorted(ps)} (want [1]), {elapsed:.2f}s < 1s")
    assert ok


# --------------------------------------------------------------- criterion 4


def test_criterion_4_induced_expansion(capsys, cheb):
    t0 = time.perf_counter()
    delta, rep = hy.choose_delta(cheb, _DELTA_LADDER)
    part = ind.build_partition(cheb, delta=delta, q0=rep.q0)
    elapsed = time.perf_counter() - t0
    min_inf = min(br.inf_df for br in part.branches)
    budget = 1e-3 * (cheb.hi - cheb.lo)
    ok = (min_inf >= 2.0 and part.unresolved_measure <= budget
          and elapsed < 60.0)
    report(capsys, 4, "induced-map expansion with pipeline-chosen scales", ok,
           f"delta={delta}, q0={rep.q0}, min inf|Df-hat| {min_inf:.3f} >= 2, "
           f"unresolved {part.unresolved_measure:.2e} <= {budget:.0e}, "
           f"{elapsed:.1f}s < 60s")
    assert ok


# --------------------------------------------------------------- criterion 5


def test_criterion_5_binding_distortion_stable(capsys, cheb, cheb_records,
                                               cheb_scales):
    delta, _ = cheb_scales
    rng = np.random.default_rng(55)
    xs = rng.uniform(-delta, delta, 1100)
    xs = xs[xs != 0.0][:1000]
    c1 = cheb_records[(0.0, "+")].c[0]
    maxima = {}
    for p_max in (30, 60):
        worst = 0.0
        for x in xs:
            res = ind.binding_period(cheb, float(x), delta=delta,
                                     records=cheb_records, p_max=p_max)
            fx = 1.0 - 2.0 * x * x
            lo, hi = (fx, c1) if fx <= c1 else (c1, fx)
            val = di.generalized_distortion(cheb, (lo, hi), res.p - 1).value
            worst = max(worst, val)
        maxima[p_max] = worst
    drift = abs(maxima[60] - maxima[30]) / maxima[30]
    ok = math.isfinite(maxima[30]) and math.isfinite(maxima[60]) and drift < 0.05
    report(capsys, 5, "first-segment distortion finite and p_max-stable", ok,
           f"max over 1000 bound points {maxima[30]:.4f} (p_max 30) vs "
           f"{maxima[60]:.4f} (p_max 60), drift {drift:.2%} < 5%")
    assert ok


# --------------------------------------------------------------- criterion 6


def test_criterion_6_variation_bound_with_calibrated_constant(capsys, cheb,
                                                              lorenz):
    t0 = time.perf_counter()
    details = []
    ok = True
    for label, m in (("quadratic", cheb), ("cusp", lorenz)):
        c_cal, cases_cal = di.variation_constant(m, n_cases=100, seed=12345)
        c_val, cases_val = di.variation_constant(m, n_cases=100, seed=67890)
        # disjoint case sets, each exact <= 2 * C_map * bound
        assert not set(cases_cal) & set(cases_val)
        assert len(cases_val) == 100
        ok = ok and c_val <= 2.0 * c_cal
        details.append(f"{label}: C_map={c_cal:.3f}, fresh max ratio "
                       f"{c_val:.3f} <= {2 * c_cal:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(capsys, 6, "variation bound dominates on fresh random cases", ok,
           "; ".join(details) + f", {elapsed:.1f}s < 120s")
    assert ok


# --------------------------------------------------------------- criterion 7


def test_criterion_7_summability_tails(capsys, cheb, cheb_partition,
                                       lorenz, lorenz_partition):
    t0 = time.perf_counter()
    details = []
    ok = True
    for label, m, part in (("quadratic", cheb, cheb_partition),
                           ("cusp", lorenz, lorenz_partition)):
        rep = di.summability_report(m, part)
        frac_var = rep.tail_var / rep.total_var
        frac_tau = rep.tail_tau_len / rep.total_tau_len
        ok = ok and rep.passed and frac_var < 1e-4 and frac_tau < 1e-4
        details.append(f"{label}: var tail {frac_var:.1e}, "
                       f"tau-length tail {frac_tau:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(capsys, 7, "variation and inducing-time series summable", ok,
           "; ".join(details) + f" (both < 1e-4), {elapsed:.1f}s < 120s")
    assert ok


# --------------------------------------------------------------- criterion 8


def arcsine_density(m_cells):
    edges = np.linspace(-1.0, 1.0, m_cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    h = 1.0 / (np.pi * np.sqrt(1.0 - centers**2))
    return h / (h.sum() * (2.0 / m_cells))


def test_criterion_8_density_estimates(capsys, cheb, cheb_partition,
                                       lorenz, lorenz_partition):
    t0 = time.perf_counter()
    m_cells = 4096
    w = 2.0 / m_cells

    est_c = de.density_pipeline(cheb, cheb_partition, m_cells=m_cells)
    l1_exact = de.l1_distance(est_c.h_map, arcsine_density(m_cells), w)
    birk = de.birkhoff_histogram(cheb, seed_count=10, n_steps=10**6,
                                 m_cells=m_cells, seed=0)
    l1_birk = de.l1_distance(est_c.h_map, birk, w)

    est_l = de.density_pipeline(lorenz, lorenz_partition, m_cells=m_cells)
    resid = est_l.invariance_residual
    wb = 2.0 / 1024
    b1 = de.birkhoff_histogram(lorenz, seed_count=10, n_steps=10**6,
                               m_cells=1024, seed=1)
    b2 = de.birkhoff_histogram(lorenz, seed_count=10, n_steps=10**6,
                               m_cells=1024, seed=2)
    l1_seeds = de.l1_distance(b1, b2, wb)
    elapsed = time.perf_counter() - t0

    ok = (l1_exact <= 0.05 and l1_birk <= 0.05 and resid <= 0.02
          and l1_seeds <= 0.02 and elapsed < 300.0)
    report(capsys, 8, "pulled-back densities vs closed form and orbits", ok,
           f"L1 vs closed form {l1_exact:.4f} <= 0.05, L1 vs 1e7-step "
           f"histogram {l1_birk:.4f} <= 0.05, cusp residual {resid:.4f} "
           f"<= 0.02, two-seed agreement {l1_seeds:.4f} <= 0.02, "
           f"{elapsed:.0f}s < 300s")
    assert ok


# --------------------------------------------------------------- criterion 9


def test_criterion_9_pipeline_determinism(capsys, tmp_path):
    args = [sys.executable, "-m", "cusp_induce.cli", "pipeline",
            "--family", "lorenz", "--m", "512", "--birkhoff", "200000"]
    outs = []
    for name in ("run1", "run2"):
        out_dir = str(tmp_path / name)
        proc = subprocess.run(args + ["--out", out_dir],
                              capture_output=True, text=False)
        outs.append((proc.returncode, proc.stdout, out_dir))
    (code1, stdout1, dir1), (code2, stdout2, dir2) = outs
    names1 = sorted(os.listdir(dir1))
    names2 = sorted(os.listdir(dir2))
    match, mismatch, errors = filecmp.cmpfiles(dir1, dir2, names1,
                                               shallow=False)
    # every artifact and stdout uses LF line ends only
    texts = [stdout1, stdout2] + [
        pathlib.Path(d, name).read_bytes()
        for d, names in ((dir1, names1), (dir2, names2)) for name in names]
    lf = all(b"\r" not in t and t.endswith(b"\n") for t in texts)
    ok = (code1 == code2 == 0 and stdout1 == stdout2 and names1 == names2
          and mismatch == [] and errors == [] and lf)
    report(capsys, 9, "repeated pipeline runs byte-identical", ok,
           f"exit codes ({code1},{code2}), stdout equal: "
           f"{stdout1 == stdout2}, {len(match)} artifacts compared, "
           f"mismatches {mismatch}, errors {errors}, LF-only: {lf}")
    assert ok
