"""One unit of a benchmark workload, in a fresh interpreter.

Run by `run.py`, never by hand:

    python3 bench/unit.py --workload W --seed N --spawned-at T \
        --result FILE [--out DIR] [--trace] [--setup-only]

Set-up is everything from interpreter start (`--spawned-at`, a
CLOCK_MONOTONIC reading `run.py` takes just before it starts this
process) to ready: importing `cusp_induce` from `src/` of the current
directory and building the workload's maps.  The unit is then timed alone:
`cusp_induce.cli.main` for the pipelines, the criterion-8 orbit sets through
`density.birkhoff_histogram` for `birkhoff`.  The result, and with
`--trace` the recorder dump, is written as JSON to `--result`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import workloads as wl


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import cusp_induce
    from cusp_induce import cli  # noqa: F401 - part of set-up
    where = os.path.realpath(cusp_induce.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"cusp_induce imported from {where}, not {src}")
    return cusp_induce


def _attempt(op):
    """(exit code, value) of one program operation; a raise counts as 1."""
    try:
        return 0, op()
    except Exception:  # noqa: BLE001 - a failed operation is counted
        traceback.print_exc()
        return 1, None


def _run_pipeline(pkg, workload, seed, out) -> list:
    argv = wl.PIPELINE_ARGS[workload] + ["--seed", str(seed), "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        rc, code = _attempt(lambda: pkg.cli.main(argv))
    return [rc or int(code)]


def _run_birkhoff(pkg, maps, seed) -> list:
    return [_attempt(lambda: pkg.density.birkhoff_histogram(
                maps[map_i], seed_count=wl.BIRKHOFF_SEED_COUNT,
                n_steps=wl.BIRKHOFF_STEPS, m_cells=cells,
                seed=wl.birkhoff_seed(seed, offset)))
            for map_i, offset, cells in wl.BIRKHOFF_SETS]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", dest="spawned_at", type=float,
                    required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", dest="setup_only", action="store_true")
    args = ap.parse_args(argv)

    pkg = _import_program(os.getcwd())
    maps = [pkg.build_map(cfg) for cfg in wl.MAP_CONFIGS[args.workload]]
    setup_s = _now() - args.spawned_at
    result = {"setup_s": setup_s}

    if not args.setup_only:
        os.makedirs(args.out, exist_ok=True)
        rec = uninstall = None
        if args.trace:
            import tracing
            rec, uninstall = tracing.install(pkg)
            rec.push("unit", "unit", True)
        t0 = _now()
        if args.workload == "birkhoff":
            exit_codes, hists = zip(*_run_birkhoff(pkg, maps, args.seed))
        else:
            exit_codes = _run_pipeline(pkg, args.workload, args.seed,
                                       args.out)
            hists = ()
        unit_s = _now() - t0
        if rec is not None:
            rec.pop()
            uninstall()
            result["trace"] = rec.dump()
            result["per_layer"] = rec.per_layer_metrics()
        result["unit_s"] = unit_s
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["exit_codes"] = list(exit_codes)
        for k, h in enumerate(hists):
            if h is not None:
                np.save(os.path.join(args.out, f"hist_{k}.npy"), h)

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
