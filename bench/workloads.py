"""The three benchmark workloads: what a unit of work runs, and on which maps.

Both the entry point (`run.py`) and the unit process (`unit.py`) read these
tables, so a workload is defined in exactly one place.  Nothing here imports
`cusp_induce`: the unit process times that import as part of its set-up.
"""

from __future__ import annotations

WORKLOADS = ("cheb-pipeline", "cusp-pipeline", "birkhoff")

# `cusp-induce pipeline` arguments of one unit, before `--seed` and `--out`.
PIPELINE_CELLS = 4096
PIPELINE_ARGS = {
    "cheb-pipeline": ["pipeline", "--family", "chebyshev", "--delta", "0.01",
                      "--q0", "7", "--m", str(PIPELINE_CELLS)],
    "cusp-pipeline": ["pipeline", "--family", "lorenz", "--param", "a=1.9",
                      "--param", "s=0.4", "--q0", "13",
                      "--m", str(PIPELINE_CELLS)],
}

# `build_map` configs built during set-up, in the form the CLI builds them.
MAP_CONFIGS = {
    "cheb-pipeline": [{"family": "chebyshev", "params": {}, "delta": 0.01}],
    "cusp-pipeline": [{"family": "lorenz",
                       "params": {"a": 1.9, "s": 0.4}}],
    "birkhoff": [{"family": "chebyshev", "params": {}},
                 {"family": "lorenz", "params": {}}],
}

# Lorenz-family parameters each workload's ensemble check steps.
ENSEMBLE_PARAMS = {
    "cusp-pipeline": (1.9, 0.4),
    "birkhoff": (1.9, 0.6),      # the family defaults
}

# Birkhoff orbit sets of acceptance criterion 8, as
# (index into MAP_CONFIGS["birkhoff"], seed offset, cells).  A run with
# workload seed n uses orbit seeds 3n + offset, so seed 0 is criterion 8's
# own set: chebyshev seed 0, lorenz seeds 1 and 2.
BIRKHOFF_SETS = ((0, 0, 4096), (1, 1, 1024), (1, 2, 1024))
BIRKHOFF_SEED_COUNT = 10
BIRKHOFF_STEPS = 10**6

# Fewest units a run makes, whatever --seconds says.  The birkhoff unit
# (about 23 s) is the shortest and the most exposed to the machine's speed
# swings: over ten one-unit runs its unit_s spread reached 0.26 of the
# median, so a run takes the median of two.
MIN_UNITS = {"birkhoff": 2}


def birkhoff_seed(workload_seed: int, offset: int) -> int:
    return 3 * workload_seed + offset


def operations(workload: str) -> int:
    """Program operations one unit attempts: CLI runs or histogram calls."""
    return len(BIRKHOFF_SETS) if workload == "birkhoff" else 1
