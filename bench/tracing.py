"""Per-layer tracing of one unit, from wrappers around public calls.

`install()` replaces public functions and `Branch` methods of the loaded
`cusp_induce` modules with timing wrappers, attaches a logging handler for
the Birkhoff escape and restart counts, and returns a `Recorder`.  The
recorder keeps, in memory:

- coarse spans (one per stage-level call, with start, end and parent), in
  the order the program made the calls;
- per span name and per layer (module): calls, total time and self time,
  where self time is a span's duration minus the time of the spans it
  encloses;
- counters read from the returned objects (`InducedPartition.summary()`,
  `UlamTable.to_dict()`) and from the call arguments.

Hot calls (`Branch` evaluations, `variation_exact`) are aggregated only,
never stored as spans.  Everything is written out by the caller after the
unit ends.
"""

from __future__ import annotations

import functools
import inspect
import logging
import time

# (owner, attribute, span name, layer, keep spans).  Owners are attribute
# paths below the `cusp_induce` package.  The four artifact writers share
# one span name, as `cli.artifacts`.
WRAPS = (
    ("map_model.Branch", "values", "expr.array", "expr", False),
    ("map_model.Branch", "d1_values", "expr.array", "expr", False),
    ("map_model.Branch", "d2_values", "expr.array", "expr", False),
    ("map_model.Branch", "jet", "expr.jet", "expr", False),
    ("map_model", "verify_nondegeneracy", "map_model.validate", "map_model",
     True),
    ("critical_orbit", "orbit_records", "critical_orbit.orbit_records",
     "critical_orbit", True),
    ("hyperbolicity", "choose_delta", "hyperbolicity.choose_delta",
     "hyperbolicity", True),
    ("inducing", "build_partition", "inducing.build_partition", "inducing",
     True),
    ("inducing", "verify_binding_lemmas", "inducing.binding_lemmas",
     "inducing", True),
    ("distortion", "summability_report", "distortion.summability",
     "distortion", True),
    ("distortion", "variation_exact", "distortion.variation_exact",
     "distortion", False),
    ("density", "density_pipeline", "density.pipeline", "density", True),
    ("density", "ulam_matrix", "density.ulam_matrix", "density", True),
    ("density", "stationary_density", "density.stationary", "density", True),
    ("density", "pull_back", "density.pull_back", "density", True),
    ("density", "invariance_residual", "density.residual", "density", True),
    ("density", "birkhoff_histogram", "density.birkhoff", "density", True),
    ("_fastmap", "get_stepper", "fastmap.get_stepper", "_fastmap", True),
    ("critical_orbit", "write_orbit_csv", "cli.artifacts", "cli", True),
    ("inducing", "write_partition_csv", "cli.artifacts", "cli", True),
    ("distortion.SummabilityReport", "write_csv", "cli.artifacts", "cli",
     True),
    ("density.DensityEstimate", "write_csv", "cli.artifacts", "cli", True),
)

# Per-layer metrics of BENCHMARK.json: name -> unit.
PER_LAYER_UNITS = {
    "expr.array_calls": "count",
    "expr.array_points": "count",
    "expr.array_s": "s",
    "expr.jet_calls": "count",
    "expr.jet_s": "s",
    "map_model.validate_s": "s",
    "critical_orbit.orbit_records_s": "s",
    "hyperbolicity.choose_delta_s": "s",
    "inducing.build_partition_s": "s",
    "inducing.binding_lemmas_s": "s",
    "inducing.branches": "count",
    "inducing.max_tau": "count",
    "inducing.unresolved_measure": "length",
    "distortion.summability_s": "s",
    "distortion.variation_exact_calls": "count",
    "density.ulam_matrix_s": "s",
    "density.ulam_us_per_branch": "us",
    "density.ulam_nnz": "count",
    "density.ulam_dead_rows": "count",
    "density.ulam_flagged_rows": "count",
    "density.stationary_s": "s",
    "density.pull_back_s": "s",
    "density.residual_s": "s",
    "fastmap.get_stepper_s": "s",
    "density.birkhoff_s": "s",
    "density.birkhoff_steps_per_s": "1/s",
    "density.birkhoff_escapes": "count",
    "density.birkhoff_restarts": "count",
    "cli.artifacts_s": "s",
}


class Recorder:
    """Span stack with self-time accounting and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans = []          # kept spans, in start order
        self.stats = {}          # span name -> [layer, calls, total, self]
        self.counters = {}
        self._stack = []         # [name, start, child time, span id or None]

    def push(self, name: str, layer: str, keep: bool) -> None:
        if name not in self.stats:
            self.stats[name] = [layer, 0, 0.0, 0.0]
        sid = None
        if keep:
            parent = next((f[3] for f in reversed(self._stack)
                           if f[3] is not None), None)
            sid = len(self.spans)
            self.spans.append({"id": sid, "parent": parent, "name": name,
                               "layer": layer, "start": None, "end": None})
        self._stack.append([name, self.clock(), 0.0, sid])

    def pop(self) -> None:
        end = self.clock()
        name, start, child, sid = self._stack.pop()
        dt = end - start
        st = self.stats[name]
        st[1] += 1
        st[2] += dt
        st[3] += dt - child
        if self._stack:
            self._stack[-1][2] += dt
        if sid is not None:
            self.spans[sid]["start"] = start - self.origin
            self.spans[sid]["end"] = end - self.origin

    def add(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def set(self, counter: str, value) -> None:
        self.counters[counter] = value

    def total_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st[2] if st else 0.0

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st[1] if st else 0

    def layer_self_s(self) -> dict:
        out = {}
        for layer, _calls, _total, self_s in self.stats.values():
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def per_layer_metrics(self) -> dict:
        """Every per-layer metric; 0 for a layer the unit never called."""
        c = self.counters
        ulam_s = self.total_s("density.ulam_matrix")
        ulam_branches = c.get("density.ulam_branches", 0)
        birk_s = self.total_s("density.birkhoff")
        values = {
            "expr.array_calls": self.calls("expr.array"),
            "expr.array_points": c.get("expr.array_points", 0),
            "expr.jet_calls": self.calls("expr.jet"),
            "inducing.branches": c.get("inducing.branches", 0),
            "inducing.max_tau": c.get("inducing.max_tau", 0),
            "inducing.unresolved_measure":
                c.get("inducing.unresolved_measure", 0.0),
            "distortion.variation_exact_calls":
                self.calls("distortion.variation_exact"),
            "density.ulam_us_per_branch":
                1e6 * ulam_s / ulam_branches if ulam_branches else 0.0,
            "density.ulam_nnz": c.get("density.ulam_nnz", 0),
            "density.ulam_dead_rows": c.get("density.ulam_dead_rows", 0),
            "density.ulam_flagged_rows":
                c.get("density.ulam_flagged_rows", 0),
            "density.birkhoff_steps_per_s":
                c.get("density.birkhoff_steps", 0) / birk_s if birk_s
                else 0.0,
            "density.birkhoff_escapes": c.get("density.birkhoff_escapes", 0),
            "density.birkhoff_restarts":
                c.get("density.birkhoff_restarts", 0),
        }
        for name in PER_LAYER_UNITS:
            if name not in values:
                values[name] = self.total_s(name[:-len("_s")])
        return values

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "names": {n: {"layer": s[0], "calls": s[1], "total_s": s[2],
                          "self_s": s[3]} for n, s in self.stats.items()},
            "layers_self_s": self.layer_self_s(),
            "counters": dict(self.counters),
        }


def _wrap(rec: Recorder, fn, name: str, layer: str, keep: bool, after):
    push, pop = rec.push, rec.pop

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        push(name, layer, keep)
        try:
            out = fn(*args, **kwargs)
        finally:
            pop()
        if after is not None:
            after(rec, out, fn, args, kwargs)
        return out
    return wrapper


def _arguments(fn, args, kwargs) -> dict:
    """Every argument of a call by name, defaults filled in."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _after_array(rec, out, fn, args, kwargs):
    rec.add("expr.array_points", int(getattr(out, "size", 1)))


def _after_partition(rec, part, fn, args, kwargs):
    s = part.summary()
    rec.set("inducing.branches", s["n_branches"])
    rec.set("inducing.max_tau",
            max((int(t) for t in s["tau_histogram"]), default=0))
    rec.set("inducing.unresolved_measure", float(s["unresolved_measure"]))


def _after_ulam(rec, table, fn, args, kwargs):
    d = table.to_dict()
    rec.set("density.ulam_nnz", d["nnz"])
    rec.set("density.ulam_dead_rows", d["dead_rows"])
    rec.set("density.ulam_flagged_rows", d["flagged_rows"])
    partition = _arguments(fn, args, kwargs)["partition"]
    rec.add("density.ulam_branches", len(partition.branches))


def _after_birkhoff(rec, hist, fn, args, kwargs):
    a = _arguments(fn, args, kwargs)
    rec.add("density.birkhoff_steps",
            int(a["seed_count"]) * int(a["n_steps"]))


_AFTER = {
    ("map_model.Branch", "values"): _after_array,
    ("map_model.Branch", "d1_values"): _after_array,
    ("map_model.Branch", "d2_values"): _after_array,
    ("inducing", "build_partition"): _after_partition,
    ("density", "ulam_matrix"): _after_ulam,
    ("density", "birkhoff_histogram"): _after_birkhoff,
}


class _BirkhoffCounts(logging.Handler):
    """Reads the escape and restart counts `birkhoff_histogram` logs."""

    def __init__(self, rec: Recorder):
        super().__init__(logging.INFO)
        self.rec = rec

    def emit(self, record: logging.LogRecord) -> None:
        if "escapes" in str(record.msg) and len(record.args or ()) == 2:
            escapes, restarts = record.args
            self.rec.add("density.birkhoff_escapes", int(escapes))
            self.rec.add("density.birkhoff_restarts", int(restarts))


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def install(package):
    """Wrap the package's public calls; returns (recorder, uninstall)."""
    rec = Recorder()
    undo = []
    for owner_path, attr, name, layer, keep in WRAPS:
        owner = _resolve(package, owner_path)
        orig = owner.__dict__[attr]
        after = _AFTER.get((owner_path, attr))
        setattr(owner, attr, _wrap(rec, orig, name, layer, keep, after))
        undo.append((owner, attr, orig))

    logger = logging.getLogger(f"{package.__name__}.density")
    handler = _BirkhoffCounts(rec)
    saved = (logger.level, logger.propagate)
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
        logger.removeHandler(handler)
        logger.setLevel(saved[0])
        logger.propagate = saved[1]

    return rec, uninstall
