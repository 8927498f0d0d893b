"""Command-line surface for the induced-map pipeline.

Commands mirror the library stages (validate, orbit, star-check,
hyperbolicity, induce, summability, density, pipeline) plus a parameter
scan and a numeric selftest.  All outputs are deterministic for a fixed
seed: JSON is emitted with sorted keys, CSV floats use repr, and nothing
records timestamps.

Exit codes: 0 all verdicts pass, 1 a computation ran but a verdict failed,
2 input or usage error (diagnostics as JSON on stdout).
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import mmap
import os
import sys

import numpy as np

from . import _vec, critical_orbit, density, distortion, hyperbolicity
from . import expr as ex
from . import inducing, map_model

_LOG = logging.getLogger(__name__)

_DELTA_LADDER = [0.2, 0.1, 0.05, 0.02, 0.01, 5e-3, 2e-3, 1e-3, 5e-4, 2e-4,
                 1e-4]


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    """Recursively convert to plain JSON types; non-finite floats to text."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _dumps(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def _out(args, filename: str) -> str:
    """The path of an artifact in the --out directory, made if absent."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, filename)


def _emit(report, args, filename: str):
    text = _dumps(report)
    sys.stdout.write(text)
    if args.out:
        with open(_out(args, filename), "w", newline="\n",
                  encoding="utf-8") as fh:
            fh.write(text)


def _fail(code: int, **diag) -> int:
    sys.stdout.write(_dumps({"error": diag}))
    return code


# ---------------------------------------------------------------------------
# map construction from flags


def _parse_params(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise map_model.MapConfigError(
                f"--param needs key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError as err:
            raise map_model.MapConfigError(
                f"--param {key}: {val!r} is not a number") from err
    return out


def _get_map(args) -> map_model.MapSpec:
    if args.config:
        for flag in ("family", "param"):
            if getattr(args, flag):
                raise map_model.MapConfigError(
                    f"--config and --{flag} are mutually exclusive")
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    elif args.family:
        cfg = {"family": args.family, "params": _parse_params(args.param)}
    else:
        raise map_model.MapConfigError("need --config FILE or --family NAME")
    if args.delta is not None and isinstance(cfg, dict):
        cfg["delta"] = args.delta
    return map_model.build_map(cfg)


def _choose_delta(m, args, cands):
    return hyperbolicity.choose_delta(
        m, cands, margin=args.margin, n_samples=args.samples,
        n_max=args.nmax, p_max=args.p_max, seed=args.seed)


def _partition(m, args, records=None):
    """(induced partition, choose_delta report) at --delta and --q0, each
    selected automatically when absent; the report is None when --delta
    is given."""
    delta, q0, report = args.delta, args.q0, None
    if delta is None:
        delta, report = _choose_delta(
            m, args, args.delta_candidates or _DELTA_LADDER)
        if q0 is None:
            q0 = report.q0
    if q0 is None:
        c_hat, lam = hyperbolicity.estimate_expansion(
            m, delta, n_samples=args.samples, n_max=args.nmax,
            seed=args.seed)
        q0 = hyperbolicity.choose_q0(c_hat, lam)
    part = inducing.build_partition(m, delta=delta, q0=q0, p_max=args.p_max,
                                    resolution=args.resolution,
                                    records=records)
    return part, report


def _write_orbits(m, records, args) -> None:
    if args.out:
        for i, cp in enumerate(m.critical_points):
            critical_orbit.write_orbit_csv(records[(cp.location, cp.side)],
                                           _out(args, f"orbit_{i}.csv"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    m = _get_map(args)
    rep = map_model.verify_nondegeneracy(m)
    _emit({"map": m.name, "nondegeneracy": rep.to_dict()}, args,
          "nondegeneracy.json")
    return 0 if rep.passed else 1


def cmd_orbit(args) -> int:
    m = _get_map(args)
    recs = critical_orbit.orbit_records(m, args.nmax)
    report = {"map": m.name, "N": args.nmax, "orbits": {}}
    for i, cp in enumerate(m.critical_points):
        rec = recs[(cp.location, cp.side)]
        report["orbits"][f"{i}"] = {
            "location": cp.location, "side": cp.side, "order": cp.order,
            "n_filled": rec.n_filled, "hit_critical_at": rec.hit_critical_at,
            "c": rec.c, "d": rec.d, "D": rec.D, "gamma": rec.gamma,
        }
    _write_orbits(m, recs, args)
    _emit(report, args, "orbit.json")
    return 0


def cmd_star_check(args) -> int:
    m = _get_map(args)
    recs = critical_orbit.orbit_records(m, args.nmax)
    report = {"map": m.name, "N": args.nmax, "points": {}}
    failed = False
    for i, cp in enumerate(m.critical_points):
        rec = recs[(cp.location, cp.side)]
        star = critical_orbit.star_sum(rec, epsilon=args.epsilon)
        starstar = critical_orbit.star_star_sum(rec, epsilon=args.epsilon)
        report["points"][f"{i}"] = {
            "location": cp.location, "side": cp.side, "order": cp.order,
            "star_verdict": star.verdict, "star_total": star.total,
            "star_tail_increment": star.tail_increment,
            "starstar_verdict_diagnostic_only": starstar.verdict,
            "starstar_total_diagnostic_only": starstar.total,
        }
        failed |= star.verdict == "fail"
    report["passed"] = not failed
    _emit(report, args, "star.json")
    return 1 if failed else 0


def cmd_hyperbolicity(args) -> int:
    m = _get_map(args)
    if args.delta is not None:
        cands = [args.delta]
    else:
        cands = args.delta_candidates or _DELTA_LADDER
    try:
        delta, rep = _choose_delta(m, args, cands)
    except hyperbolicity.DeltaSelectionError as err:
        _emit({"map": m.name, "passed": False,
               "candidates": list(cands), "diagnostics": err.diagnostics},
              args, "expansion.json")
        return 1
    _emit({"map": m.name, "passed": True, "delta": delta,
           "report": rep.to_dict()}, args, "expansion.json")
    return 0


def cmd_induce(args) -> int:
    m = _get_map(args)
    part, _ = _partition(m, args)
    if args.out:
        inducing.write_partition_csv(part, _out(args, "partition.csv"))
    _emit({"map": m.name, "partition": part.summary()}, args,
          "partition.json")
    return 0


def cmd_summability(args) -> int:
    m = _get_map(args)
    part, _ = _partition(m, args)
    rep = distortion.summability_report(m, part, epsilon=args.epsilon)
    if args.out:
        rep.write_csv(_out(args, "summability.csv"))
    _emit({"map": m.name, "partition": part.summary(),
           "summability": rep.to_dict()}, args, "summability.json")
    return 0 if rep.passed else 1


def _birkhoff_check(m, est, args) -> float:
    """L1 distance between the density estimate and the histogram of an
    args.birkhoff-step Birkhoff orbit, which goes to birkhoff.csv."""
    h_b = density.birkhoff_histogram(m, n_steps=args.birkhoff,
                                     m_cells=args.m, seed=args.seed)
    if args.out:
        critical_orbit.write_csv(_out(args, "birkhoff.csv"),
                                 "cell_center,density",
                                 zip(est.cell_centers().tolist(),
                                     h_b.tolist()))
    return density.l1_distance(est.h_map, h_b, (m.hi - m.lo) / args.m)


def cmd_density(args) -> int:
    m = _get_map(args)
    part, _ = _partition(m, args)
    est = density.density_pipeline(m, part, m_cells=args.m,
                                   m_induced=args.m_induced)
    report = {"map": m.name, "partition": part.summary(),
              "density": est.to_dict()}
    if args.birkhoff:
        report["birkhoff_l1_distance"] = _birkhoff_check(m, est, args)
    if args.out:
        est.write_csv(_out(args, "density.csv"))
    _emit(report, args, "density.json")
    return 0


def cmd_pipeline(args) -> int:
    m = _get_map(args)
    stages = {}
    report = {"map": m.name, "seed": args.seed, "stages": stages,
              "passed": False, "failed_stage": None}

    def finish(failed_stage=None) -> int:
        report["failed_stage"] = failed_stage
        report["passed"] = failed_stage is None
        _emit(report, args, "pipeline.json")
        return 0 if failed_stage is None else 1

    nd = map_model.verify_nondegeneracy(m)
    stages["validate"] = nd.to_dict()
    if not nd.passed:
        return finish("validate")

    records = critical_orbit.orbit_records(m, args.p_max + 1)
    stages["orbit"] = {
        f"{i}": {"location": cp.location, "side": cp.side,
                 "n_filled": records[(cp.location, cp.side)].n_filled,
                 "hit_critical_at":
                     records[(cp.location, cp.side)].hit_critical_at}
        for i, cp in enumerate(m.critical_points)}
    _write_orbits(m, records, args)

    stars = {}
    star_fail = False
    for i, cp in enumerate(m.critical_points):
        star = critical_orbit.star_sum(records[(cp.location, cp.side)])
        stars[f"{i}"] = {"location": cp.location, "side": cp.side,
                         "verdict": star.verdict, "total": star.total}
        star_fail |= star.verdict == "fail"
    stages["star"] = stars
    if star_fail:
        return finish("star")

    try:
        part, hrep = _partition(m, args, records)
    except (hyperbolicity.DeltaSelectionError,
            hyperbolicity.ExpansionFailure) as err:
        stages["hyperbolicity"] = {
            "passed": False,
            "diagnostics": getattr(err, "diagnostics", str(err))}
        return finish("hyperbolicity")
    stages["hyperbolicity"] = {
        "passed": True, "delta": part.delta, "q0": part.q0,
        "report": hrep.to_dict() if hrep is not None else None}
    stages["induce"] = part.summary()
    if args.out:
        inducing.write_partition_csv(part, _out(args, "partition.csv"))

    def replay():
        """The lemmas and summability: the failed stage, or None."""
        lem = inducing.verify_binding_lemmas(
            m, part, n_samples=args.samples_lemma, seed=args.seed,
            records=records)
        stages["lemmas"] = lem.to_dict()
        if not lem.passed:
            return "lemmas"
        summ = distortion.summability_report(m, part, records=records)
        stages["summability"] = summ.to_dict()
        if args.out:
            summ.write_csv(_out(args, "summability.csv"))
        return None if summ.passed else "summability"

    # Density reads the partition alone.  With two CPUs in the affinity
    # mask a forked child (_vec._fork_join) runs it while this process
    # runs replay; its results come back through one shared buffer:
    # residual, dead and flagged rows, h_induced, h_map.  This process
    # runs density only where replay passed, after a child that could
    # not be made or failed, or with one CPU.
    n_ind = args.m if args.m_induced is None else args.m_induced
    buf = np.frombuffer(mmap.mmap(-1, 8 * (3 + max(n_ind, 0)
                                           + max(args.m, 0))))
    gate = {}

    def run(k):
        if k == 0:
            gate["failed"] = replay()
        elif gate.get("failed") is None:
            est = density.density_pipeline(m, part, m_cells=args.m,
                                           m_induced=args.m_induced)
            buf[:] = np.concatenate((
                [est.invariance_residual, est.params["dead_rows"],
                 est.params["flagged_rows"]], est.h_induced, est.h_map))

    w = _vec._worker_count(2, 1)
    _vec._fork_join(run, w)
    if gate["failed"] is not None:
        return finish(gate["failed"])
    if w == 1:
        run(1)
    est = density.density_estimate(part, buf[3:3 + n_ind], buf[3 + n_ind:],
                                   float(buf[0]), int(buf[1]), int(buf[2]))
    stages["density"] = est.to_dict()
    if args.out:
        est.write_csv(_out(args, "density.csv"))
    if args.birkhoff:
        stages["density"]["birkhoff_l1_distance"] = _birkhoff_check(
            m, est, args)
    return finish(None)


# scan rows run in worker processes; keep the payload picklable
def _scan_row(task):
    family, params, N = task
    row = {"family": family, "params": dict(params), "error": "",
           "flag": "", "star_verdict": "", "star_total": math.nan,
           "growth_margin": math.nan, "kappa_hat": math.nan,
           "h_delta": -1}
    try:
        m = map_model.build_map({"family": family, "params": dict(params)})
        recs = critical_orbit.orbit_records(m, N)
        verdicts, totals, margins = [], [], []
        for rec in recs.values():
            if rec.hit_critical_at is not None:
                row["flag"] = f"hit-critical@{rec.hit_critical_at}"
            star = critical_orbit.star_sum(rec)
            if star.verdict != "not-applicable":
                verdicts.append(star.verdict)
                totals.append(star.total)
            try:
                fit = critical_orbit.growth_fit(rec)
                if math.isfinite(fit.margin):
                    margins.append(fit.margin)
            except ValueError:
                row["flag"] = row["flag"] or "orbit-too-short"
        if verdicts:
            row["star_verdict"] = ("fail" if "fail" in verdicts
                                   else "summable-so-far")
            row["star_total"] = max(totals)
        else:
            row["star_verdict"] = "not-applicable"
        if margins:
            row["growth_margin"] = min(margins)
        kap = hyperbolicity.estimate_kappa(m, m.delta, n_samples=2000,
                                           n_max=32)
        row["kappa_hat"] = kap.value
        row["h_delta"] = hyperbolicity.compute_h_delta(m, m.delta)
    except Exception as err:  # noqa: BLE001 - row isolation is the contract
        row["error"] = f"{type(err).__name__}: {err}"
    return row


def cmd_scan(args) -> int:
    if not args.family:
        raise map_model.MapConfigError("scan needs --family NAME")
    axes = []
    for axis in args.grid or ():
        if "=" not in axis:
            raise map_model.MapConfigError(
                f"--grid needs key=v1,v2,..., got {axis!r}")
        key, _, vals = axis.partition("=")
        try:
            axes.append((key.strip(),
                         [float(v) for v in vals.split(",") if v != ""]))
        except ValueError as err:
            raise map_model.MapConfigError(
                f"--grid {key}: values must be numbers") from err
    combos = [dict(zip([k for k, _ in axes], values))
              for values in itertools.product(*[v for _, v in axes])]
    if not axes:
        combos = []
    tasks = [(args.family, combo, args.nmax) for combo in combos]
    if args.jobs > 1 and len(tasks) > 1:
        # imported here: the other commands would pay for it at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_scan_row, tasks))
    else:
        rows = [_scan_row(t) for t in tasks]
    param_keys = [k for k, _ in axes]
    header = ",".join(["family"] + param_keys
                      + ["star_verdict", "star_total", "growth_margin",
                         "kappa_hat", "h_delta", "flag", "error"])
    csv_rows = [[r["family"]] + [r["params"].get(k, "") for k in param_keys]
                + [r["star_verdict"], r["star_total"], r["growth_margin"],
                   r["kappa_hat"], r["h_delta"], r["flag"],
                   r["error"].replace(",", ";")]
                for r in rows]
    if args.out:
        critical_orbit.write_csv(_out(args, "scan.csv"), header, csv_rows)
    if args.format == "csv":
        sys.stdout.write(header + "\n")
        sys.stdout.writelines(map(critical_orbit.csv_line, csv_rows))
        return 0
    _emit({"family": args.family, "N": args.nmax, "rows": rows}, args,
          "scan.json")
    return 0


def cmd_selftest(args) -> int:
    checks = {}
    jets_ok, worst = _jet_selftest(seed=args.seed)
    checks["jets_vs_finite_differences"] = {"passed": jets_ok,
                                            "worst_rel_error": worst}
    # chebyshev's preimage of 0 on its left branch, through the bisection
    # of 1 - 2*x*x and the closed-form inverse of 1 - 2*x^2
    residuals = {}
    for spelling in ("1 - 2*x*x", "1 - 2*x^2"):
        m = map_model.build_map({
            **map_model.family_config("chebyshev"),
            "branches": [{"interval": iv, "expr": spelling}
                         for iv in ([-1, 0], [0, 1])]})
        ids, sol = _vec.preimages(m, np.array([0.0]))
        residuals[spelling] = (float(m.branches[0].value(sol[0]))
                               if ids[:1].tolist() == [0] else math.nan)
    inv_ok = all(abs(r) < 1e-10 for r in residuals.values())
    checks["branch_inversion"] = {"passed": inv_ok, "residual": residuals}
    # chebyshev's 1/|Df| = 1/(4x) falls from 1 to 1/3 over (1/4, 3/4)
    var = distortion.variation_exact(m, (0.25, 0.75), 1)
    var_ok = abs(var - 2.0 / 3.0) < 1e-12
    checks["variation_exact"] = {"passed": var_ok, "value": var}
    passed = jets_ok and inv_ok and var_ok
    _emit({"passed": passed, "checks": checks}, args, "selftest.json")
    return 0 if passed else 1


_SELFTEST_EXPRS = [
    "x^2 + 3*x - 1", "(1 - 2*x^2)*(1 + x/3)", "abs(x - 0.3)^1.7",
    "abs(x)^0.6 - x", "1/(2 + x^2)", "sign(x - 2)*(x - 2)^2",
    "(x + 1)^3 - 2*(x + 1)", "2*abs(x + 0.5)^2.5 + x", "x/(1 + abs(x))",
    "(3 - x)^-2",
]


def _jet_selftest(seed: int = 0):
    """Worst relative error of checked jets against central differences of
    checked values, at 20 points per expression."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for src in _SELFTEST_EXPRS:
        checked = ex.compile(ex.parse(src)).checked
        x = rng.uniform(-0.9, 0.9, 20)
        (_, d1, d2), fault = checked(x, 2)

        def f(h):
            return checked(x + h, 0)[0]
        fd1, fd1b = ((f(h) - f(-h)) / (2 * h) for h in (1e-6, 5e-7))
        fd2, fd2b = ((f(h) - 2 * f(0.0) + f(-h)) / (h * h)
                     for h in (1e-4, 5e-5))
        # skip stencils that straddle a stiff region (near-kink blowup)
        ok1 = ~fault & (abs(d1) > 1e-2) & (abs(fd1 - fd1b) < 1e-7 * abs(d1))
        ok2 = ~fault & (abs(d2) > 1e-2) & (abs(fd2 - fd2b) < 1e-5 * abs(d2))
        worst = max([worst, *(abs(fd1 - d1) / abs(d1))[ok1].tolist(),
                     *(abs(fd2 - d2) / abs(d2))[ok2].tolist()])
    return worst < 1e-4, worst


# ---------------------------------------------------------------------------
# parser


def _add_map_flags(sp):
    sp.add_argument("--config", help="map config JSON file")
    sp.add_argument("--family", help="built-in family name")
    sp.add_argument("--param", action="append", metavar="KEY=VALUE",
                    help="family parameter (repeatable)")
    sp.add_argument("--delta", type=float, default=None,
                    help="neighborhood radius, in place of the map's own; "
                    "hyperbolicity tries only this value, and the stages "
                    "that induce choose one when it is absent")


def _add_delta_flags(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--delta-candidates", type=float, nargs="*", default=None)
    sp.add_argument("--margin", type=float, default=10.0)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--nmax", type=int, default=64)
    sp.add_argument("--p-max", dest="p_max", type=int, default=60)


def _add_scale_flags(sp):
    _add_delta_flags(sp)
    sp.add_argument("--q0", type=int, default=None,
                    help="free inducing time (chosen automatically if absent)")
    sp.add_argument("--resolution", type=float, default=1e-10)


def _add_density_flags(sp):
    sp.add_argument("--m", type=int, default=4096, help="output grid cells")
    sp.add_argument("--m-induced", dest="m_induced", type=int, default=None)
    sp.add_argument("--birkhoff", type=int, default=0,
                    help="cross-check orbit length (0 disables)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cusp-induce",
        description="Induced-map construction and invariant-density "
                    "estimation for interval maps with critical and "
                    "singular points.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, *groups):
        sp = sub.add_parser(name, help=help)
        for add_flags in groups:
            add_flags(sp)
        sp.add_argument("--out", help="directory for artifacts")
        sp.set_defaults(func=func)
        return sp

    command("validate", cmd_validate, "build a map and check nondegeneracy "
            "of the declared points", _add_map_flags)
    sp = command("orbit", cmd_orbit, "critical-orbit ledger (c_n, d, D_n, "
                 "gamma_n)", _add_map_flags)
    sp.add_argument("--nmax", type=int, default=40)
    sp = command("star-check", cmd_star_check, "summability series verdict "
                 "per critical point", _add_map_flags)
    sp.add_argument("--nmax", type=int, default=40)
    sp.add_argument("--epsilon", type=float, default=1e-6)
    command("hyperbolicity", cmd_hyperbolicity, "expansion estimates and "
            "neighborhood-radius selection", _add_map_flags, _add_delta_flags)
    command("induce", cmd_induce, "build the induced-map partition",
            _add_map_flags, _add_scale_flags)
    sp = command("summability", cmd_summability, "variation/length sums "
                 "over the partition", _add_map_flags, _add_scale_flags)
    sp.add_argument("--epsilon", type=float, default=1e-4)
    command("density", cmd_density, "invariant density through the induced "
            "map", _add_map_flags, _add_scale_flags, _add_density_flags)
    sp = command("pipeline", cmd_pipeline, "all stages in order with "
                 "artifacts", _add_map_flags, _add_scale_flags,
                 _add_density_flags)
    sp.add_argument("--samples-lemma", dest="samples_lemma", type=int,
                    default=1000)
    sp = command("scan", cmd_scan, "cheap-stage survey over a parameter grid")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--family", required=True)
    sp.add_argument("--grid", action="append", metavar="KEY=V1,V2,...",
                    help="parameter axis (repeatable; cartesian product)")
    sp.add_argument("--nmax", type=int, default=40)
    sp = command("selftest", cmd_selftest, "numeric selftests (jets against "
                 "finite differences, branch inversion, exact variation)")
    sp.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("CUSP_INDUCE_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(),
                                          logging.INFO))
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (map_model.MapConfigError, ex.ExprError, FileNotFoundError,
            json.JSONDecodeError) as err:
        return _fail(2, kind=type(err).__name__, message=str(err))
    except (map_model.MapValidationError, ValueError, RuntimeError) as err:
        return _fail(1, kind=type(err).__name__, message=str(err))


if __name__ == "__main__":
    sys.exit(main())
