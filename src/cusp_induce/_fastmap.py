"""Compiled long-orbit stepper generated from the map's branch expressions.

The kernel source is emitted as plain python (branch dispatch as a chain of
comparisons against the interior boundaries, expressions inlined with their
parameters) and compiled with numba when available.  Orbits that land
exactly on a critical location restart from a pre-drawn pool, as do escapes;
both events are counted.
"""

from __future__ import annotations

from . import expr as ex

try:
    import numba
except ImportError:            # numba is optional; the kernel runs as python
    numba = None


def _kernel_source(m) -> str:
    lines = [
        "def _orbit_kernel(x0, n_steps, burn_in, hist, pool):",
        f"    lo = {m.lo!r}",
        f"    hi = {m.hi!r}",
        "    width = hi - lo",
        "    n_cells = hist.shape[0]",
        "    x = x0",
        "    ri = 0",
        "    escapes = 0",
        "    restarts = 0",
        "    for k in range(n_steps):",
    ]
    conds = []
    for i, br in enumerate(m.branches):
        src = ex.value_source(br.tree, br.params, var="x")
        if i == 0:
            conds.append(f"        if x < {float(br.b)!r}:")
        elif i == len(m.branches) - 1:
            conds.append("        else:")
        else:
            conds.append(f"        elif x < {float(br.b)!r}:")
        conds.append(f"            v = {src}")
    lines.extend(conds)
    lines.extend([
        "        if v != v or v < lo - 1e-9 or v > hi + 1e-9:",
        "            escapes += 1",
        "            x = pool[ri % pool.shape[0]]",
        "            ri += 1",
        "            continue",
        "        if v < lo:",
        "            v = lo",
        "        if v > hi:",
        "            v = hi",
    ])
    for loc in sorted({cp.location for cp in m.critical_points}):
        lines.extend([
            f"        if v == {float(loc)!r}:",
            "            restarts += 1",
            "            x = pool[ri % pool.shape[0]]",
            "            ri += 1",
            "            continue",
        ])
    lines.extend([
        "        x = v",
        "        if k >= burn_in:",
        "            idx = int((x - lo) / width * n_cells)",
        "            if idx >= n_cells:",
        "                idx = n_cells - 1",
        "            if idx < 0:",
        "                idx = 0",
        "            hist[idx] += 1",
        "    return escapes, restarts",
    ])
    return "\n".join(lines) + "\n"


def get_stepper(m):
    """Compiled (or plain) orbit kernel for the map, cached on the instance."""
    cached = m.__dict__.get("_orbit_stepper")
    if cached is not None:
        return cached
    src = _kernel_source(m)
    ns = {"abs": abs}
    exec(compile(src, f"<orbit kernel {m.name}>", "exec"), ns)
    fn = ns["_orbit_kernel"]
    if numba is not None:
        fn = numba.njit(cache=False)(fn)
    m.__dict__["_orbit_stepper"] = fn
    return fn
