"""Benchmark of the cusp-induce pipeline.  Run from the repository root:

    python3 bench/run.py --workload cheb-pipeline --seed 0 --seconds 10 \
        --trace 0

Workloads: `cheb-pipeline`, `cusp-pipeline`, `birkhoff` (see README.md).

Every unit of work runs in a fresh interpreter (`unit.py`).  A run first
times a few set-ups alone, then repeats whole units until `--seconds` have
passed (at least `workloads.MIN_UNITS`), checks each unit's outputs outside
its timing, and prints one JSON line last on stdout:

- `--trace 0`: `setup_s`, `unit_s` and `peak_rss_mb`, medians over the run;
- `--trace 1`: the per-layer metrics of `tracing.py`, medians over the
  run's traced units, and a JSON-lines trace under `.bench_work/`.

Exits 2 without a result when the program cannot be found or a unit
process breaks down.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import checks
import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".bench_work"
SETUP_ALONE = 2           # set-up-only processes per run, besides the units'
DEADLINE_S = 170.0        # a run stops before this, whatever --seconds says


class BenchError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(args, run_dir: str, tag: str, deadline: float, extra=()) -> dict:
    """Run unit.py once and return its result dict."""
    result = os.path.join(run_dir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "unit.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--result", result, *extra]
    timeout = deadline - _now()
    if timeout <= 0:
        raise BenchError("out of time before a unit could start")
    cmd += ["--spawned-at", repr(_now())]
    try:
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{tag} exceeded the run deadline") from err
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"{tag} exited with code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def _unit_checks(args, out: str, unit: dict, reference) -> list:
    if args.workload == "birkhoff":
        hists = [np.load(os.path.join(out, f"hist_{k}.npy"))
                 for k in range(len(wl.BIRKHOFF_SETS))]
        return checks.birkhoff_checks(hists, reference)
    return checks.pipeline_checks(args.workload, out, reference)


def _read_jsonl(path: str) -> list:
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _write_trace(root: str, args, units: list) -> str:
    """JSON-lines trace of a traced run; returns its path."""
    history = _read_jsonl(os.path.join(root, WORK, "results.jsonl"))
    plain = [u for r in history
             if r["workload"] == args.workload and not r["trace"]
             for u in r["unit_s"]]
    traced = statistics.median(u["unit_s"] for u in units)
    untraced = statistics.median(plain) if plain else None
    path = os.path.join(root, WORK, f"trace-{args.workload}-seed{args.seed}"
                        ".jsonl")
    with open(path, "w") as fh:
        for k, unit in enumerate(units):
            t = unit["trace"]
            for span in t["spans"]:
                fh.write(json.dumps({"type": "span", "unit": k, **span})
                         + "\n")
            for name, st in t["names"].items():
                fh.write(json.dumps({"type": "call", "unit": k,
                                     "name": name, **st}) + "\n")
            for layer, self_s in t["layers_self_s"].items():
                fh.write(json.dumps({"type": "layer", "unit": k,
                                     "layer": layer, "self_s": self_s})
                         + "\n")
            fh.write(json.dumps({"type": "counters", "unit": k,
                                 **t["counters"]}) + "\n")
        fh.write(json.dumps({
            "type": "summary", "workload": args.workload, "seed": args.seed,
            "traced_unit_s": traced, "untraced_unit_s": untraced,
            "overhead_s": None if untraced is None else traced - untraced,
            "untraced_runs_seen": len(plain)}) + "\n")
    return path


def bench(args, root: str) -> dict:
    deadline = _now() + DEADLINE_S
    work = os.path.join(root, WORK)
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(
        work, "tmp"))
    try:
        setups = [] if args.trace else [
            _spawn(args, run_dir, f"setup{k}", deadline,
                   ["--setup-only"])["setup_s"]
            for k in range(SETUP_ALONE)]
        units, results, failed = [], [], 0
        reference = None
        start = _now()
        per_unit = 0.0               # wall time of the last unit and checks
        min_units = wl.MIN_UNITS.get(args.workload, 1)
        while len(units) < min_units or _now() - start < args.seconds:
            if units and _now() + per_unit > deadline:
                break                # another unit would miss the deadline
            began = _now()
            out = os.path.join(run_dir, f"out{len(units)}")
            unit = _spawn(args, run_dir, f"unit{len(units)}", deadline,
                          ["--out", out] + (["--trace"] if args.trace
                                            else []))
            units.append(unit)
            ok_ops = [rc == 0 for rc in unit["exit_codes"]]
            failed += ok_ops.count(False)
            if all(ok_ops):
                if reference is None:
                    reference = checks.reference_for(args.workload,
                                                     args.seed)
                results += _unit_checks(args, out, unit, reference)
            shutil.rmtree(out, ignore_errors=True)
            per_unit = _now() - began
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    setups += [u["setup_s"] for u in units]
    record = {"workload": args.workload, "seed": args.seed,
              "trace": bool(args.trace), "setup_s": setups,
              "unit_s": [u["unit_s"] for u in units],
              "peak_rss_mb": [u["peak_rss_mb"] for u in units],
              "failed": failed, "checks": results}
    if args.trace:
        trace_path = _write_trace(root, args, units)
        print(f"trace written to {trace_path}", file=sys.stderr)
        metrics = {
            name: {"value": statistics.median(
                       u["per_layer"][name] for u in units),
                   "unit": unit_name}
            for name, unit_name in tracing.PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "unit_s": {"value": statistics.median(record["unit_s"]),
                       "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                record["peak_rss_mb"]), "unit": "MB"},
        }
    with open(os.path.join(work, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for c in results:
        if not c["ok"]:
            print(f"check failed: {c}", file=sys.stderr)
    return {"correct": all(c["ok"] for c in results),
            "attempted": len(units) * wl.operations(args.workload),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cusp_induce",
                                       "cli.py")):
        print("error: run from the repository root; src/cusp_induce is "
              "missing here", file=sys.stderr)
        return 2
    try:
        result = bench(args, root)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
