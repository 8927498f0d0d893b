"""Piecewise-monotone interval maps with one-sided critical/singular points.

A map is a finite list of open branches (a_i, b_i) covering the domain, each
carrying an expression that is C2 and strictly monotone on the open branch.
Interior branch boundaries form the critical set; each one-sided approach to
such a boundary must declare its order ell:

    |f(x) - f(c)| ~ d(x,c)^ell,  |Df(x)| ~ d^(ell-1),  |D2f(x)| ~ d^(ell-2)

ell > 1 is a critical point (derivative -> 0), ell < 1 a singular point
(derivative -> infinity), ell = 1 is degenerate and only accepted flagged.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import _vec
from . import expr as ex

__all__ = [
    "MapConfigError",
    "MapValidationError",
    "Branch",
    "CriticalPoint",
    "MapSpec",
    "NondegeneracyReport",
    "build_map",
    "load_map",
    "family_config",
    "chebyshev_map",
    "unimodal_map",
    "lorenz_map",
    "singular_unimodal_map",
    "evaluate",
    "critical_distance",
    "verify_nondegeneracy",
]

log = logging.getLogger("cusp_induce.map_model")

_ETAS = (1e-6, 1e-7, 1e-8)  # offsets for one-sided limit extrapolation
_BOUNDARY_TOL = 1e-12
_IMAGE_TOL = 1e-9
ND_STEPS = 64       # verify_nondegeneracy's most halvings of delta
ND_BOUND = 100.0    # and the largest max/min of a ratio family
ND_ULPS = 4         # f ratio samples within this many ulps of f(c) drop


class MapConfigError(ValueError):
    """Malformed config: wrong keys, wrong types, bad intervals."""


class MapValidationError(ValueError):
    """Config parsed but the map it describes is invalid."""


@dataclass(frozen=True)
class CriticalPoint:
    location: float
    side: str  # "+" or "-"
    order: float

    @property
    def kind(self) -> str:
        if self.order > 1.0:
            return "critical"
        if self.order < 1.0:
            return "singular"
        return "flat-linear"

    @property
    def degenerate(self) -> bool:
        return self.order == 1.0

    def contains(self, x: float, delta: float) -> bool:
        """Whether x lies in the one-sided neighborhood Delta(c, delta)."""
        return bool(_vec.in_side(x, self.location, self.side, delta))


@dataclass(frozen=True)
class Branch:
    a: float
    b: float
    source: str
    tree: object
    params: dict

    def jet(self, x: float) -> ex.Jet2:
        return self._compiled.jet(x)

    def value(self, x: float) -> float:
        return self._compiled.value(x)

    def values(self, x: np.ndarray, order: int = 0):
        """f(x), or the tuple (f, Df) at order 1 and (f, Df, D2f) at 2."""
        return self._compiled.array(x, order)

    def d1_values(self, x: np.ndarray) -> np.ndarray:
        return self._compiled.array(x, 1)[1]

    def d2_values(self, x: np.ndarray) -> np.ndarray:
        return self._compiled.array(x, 2)[2]

    # each expression is compiled once, on first use
    @cached_property
    def _compiled(self) -> ex.Compiled:
        return ex.compile(self.tree, self.params)


@dataclass
class MapSpec:
    """A validated piecewise-monotone interval map."""

    name: str
    lo: float
    hi: float
    delta: float
    branches: tuple
    critical_points: tuple

    @cached_property
    def interior_boundaries(self) -> np.ndarray:
        return np.array([br.a for br in self.branches[1:]], dtype=float)

    @cached_property
    def critical_locations(self) -> np.ndarray:
        locs = sorted({cp.location for cp in self.critical_points})
        return np.array(locs, dtype=float)

    @cached_property
    def formula_groups(self) -> tuple:
        """Branches that share one formula (equal tree and params).

        Returns (group id of each branch, with a trailing -1 so that an
        itinerary's -1 padding maps to -1; the first branch of each group).
        The first branch's formula evaluates for its whole group.
        """
        ids, firsts = [], []
        for br in self.branches:
            g = next((k for k, f in enumerate(firsts)
                      if f.tree == br.tree and f.params == br.params),
                     len(firsts))
            if g == len(firsts):
                firsts.append(br)
            ids.append(g)
        return np.array(ids + [-1], dtype=np.int64), tuple(firsts)

    @cached_property
    def group_values(self):
        """evaluate(x, order=0): the list of each formula group's
        ``Branch.values(x, order)``, bit for bit, from one
        ``expr.compile_groups`` call, which evaluates the subtrees the
        groups share once; it runs under the caller's ``np.errstate``."""
        return ex.compile_groups([(br.tree, br.params)
                                  for br in self.formula_groups[1]])

    @cached_property
    def group_cuts(self) -> np.ndarray:
        """The interior boundaries where the formula group changes."""
        g = self.formula_groups[0][:-1]
        return self.interior_boundaries[g[1:] != g[:-1]]

    @cached_property
    def group_inverses(self) -> tuple:
        """Each formula group's closed-form inverse as (solve, signs), or
        None where ``expr.inverse`` finds none: signs[k] holds the sign of
        the inverse's site k on every branch, read once at the branch
        midpoint, as a monotone branch keeps it."""
        mids = np.array([0.5 * (br.a + br.b) for br in self.branches])
        out = []
        for br in self.formula_groups[1]:
            inv = ex.inverse(br.tree, br.params)
            out.append(inv and (inv[1], [np.sign(ex.compile(
                site, br.params).array(mids)) for site in inv[0]]))
        return tuple(out)

    @cached_property
    def monotone_signs(self) -> tuple:
        """+1 for increasing branches, -1 for decreasing (set by validation)."""
        return tuple(_branch_sign(br) for br in self.branches)

    @cached_property
    def branch_images(self) -> tuple:
        """Closure of each branch's image, as (low, high) one-sided limits."""
        out = []
        for i, br in enumerate(self.branches):
            va = self.endpoint_jet(i, br.a, "+").value
            vb = self.endpoint_jet(i, br.b, "-").value
            out.append((min(va, vb), max(va, vb)))
        return tuple(out)

    def branch_index(self, x: float) -> int:
        i = int(np.searchsorted(self.interior_boundaries, x, side="right"))
        return min(i, len(self.branches) - 1)

    def declared(self, location: float, side: str):
        for cp in self.critical_points:
            if cp.location == location and cp.side == side:
                return cp
        return None

    def endpoint_jet(self, branch_index: int, x: float, side: str) -> ex.Jet2:
        """One-sided jet at a branch endpoint.

        Direct jet evaluation is used when the expression extends smoothly
        (exact); otherwise the value is a Richardson-style extrapolated limit
        over x +- eta, eta in {1e-6, 1e-7, 1e-8}, and derivative components
        that the declared order forces to blow up become +-inf sentinels.
        """
        br = self.branches[branch_index]
        try:
            return br.jet(x)
        except (ex.NonDifferentiableError, ex.EvalDomainError):
            pass
        sgn = 1.0 if side == "+" else -1.0
        jets = [br.jet(x + sgn * eta) for eta in _ETAS]
        # a continuous expression usually still evaluates exactly at the
        # kink; keep that value unless the samples reveal a jump (sign).
        # Beside a steep power the last sample can sit farther than the
        # tolerance from the kink value while the limit does not.
        try:
            v0 = float(br.value(x))
        except (ex.NonDifferentiableError, ex.EvalDomainError):
            v0 = math.nan
        value = _richardson([j.value for j in jets])
        tol = 1e-3 * (1.0 + abs(v0))
        if math.isfinite(v0) and (abs(v0 - jets[-1].value) <= tol
                                  or abs(v0 - value) <= tol):
            value = v0
        cp = self.declared(x, side)
        d1s = [j.d1 for j in jets]
        d2s = [j.d2 for j in jets]
        if cp is not None and not cp.degenerate:
            if cp.order < 1.0:
                d1 = math.copysign(math.inf, d1s[-1])
                d2 = math.copysign(math.inf, d2s[-1])
            else:
                d1 = 0.0
                if cp.order < 2.0:
                    d2 = math.copysign(math.inf, d2s[-1])
                elif cp.order == 2.0:
                    d2 = _richardson(d2s)
                else:
                    d2 = 0.0
            return ex.Jet2(value, d1, d2)
        return ex.Jet2(value, _limit_or_inf(d1s), _limit_or_inf(d2s))


def _richardson(samples) -> float:
    """Extrapolate g(eta) -> g(0) from samples at eta = 1e-6, 1e-7, 1e-8."""
    v1, v2, v3 = samples
    s1, s2 = v1 - v2, v2 - v3
    if abs(s2) < 1e-14 * (1.0 + abs(v3)) or abs(s1) <= abs(s2):
        return v3
    ratio = s1 / s2
    if ratio <= 1.0:
        return v3
    return v3 - s2 / (ratio - 1.0)


def _limit_or_inf(samples) -> float:
    """Extrapolate, but report an inf sentinel when samples keep growing."""
    v1, v2, v3 = samples
    if abs(v3) > abs(v2) > abs(v1) and abs(v3) > 1e6:
        return math.copysign(math.inf, v3)
    return _richardson(samples)


def _branch_sign(br: Branch) -> int:
    mid = 0.5 * (br.a + br.b)
    return 1 if br.jet(mid).d1 > 0 else -1


# ---------------------------------------------------------------------------
# config handling

_TOP_KEYS = {"name", "domain", "delta", "branches", "critical_points"}
_FAMILY_KEYS = {"family", "params", "delta", "name"}
_BRANCH_KEYS = {"interval", "expr", "params"}
_CP_KEYS = {"location", "side", "order"}


def _require_keys(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise MapConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise MapConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MapConfigError(f"{where}: expected a number, got {v!r}")
    return float(v)


def build_map(config: dict) -> MapSpec:
    """Build and validate a MapSpec from a config dict.

    Two shapes are accepted: an explicit map with domain / delta / branches /
    critical_points, or ``{"family": name, "params": {...}}`` for the
    built-in families.  Unknown keys are rejected anywhere in the config.
    """
    if not isinstance(config, dict):
        raise MapConfigError("config must be a dict")
    if "family" in config:
        _require_keys(config, _FAMILY_KEYS, "config")
        cfg = family_config(
            config["family"],
            config.get("params"),
            delta=config.get("delta"),
            name=config.get("name"),
        )
        return build_map(cfg)

    _require_keys(config, _TOP_KEYS, "config")
    for key in ("domain", "delta", "branches"):
        if key not in config:
            raise MapConfigError(f"config: missing required key {key!r}")
    name = config.get("name", "map")
    if not isinstance(name, str):
        raise MapConfigError("config.name: expected a string")

    domain = config["domain"]
    if not isinstance(domain, (list, tuple)) or len(domain) != 2:
        raise MapConfigError("config.domain: expected [lo, hi]")
    lo = _number(domain[0], "config.domain[0]")
    hi = _number(domain[1], "config.domain[1]")
    if not lo < hi:
        raise MapConfigError("config.domain: lo must be < hi")

    delta = _number(config["delta"], "config.delta")
    if delta <= 0.0:
        raise MapConfigError("config.delta: must be > 0")

    raw_branches = config["branches"]
    if not isinstance(raw_branches, list) or not raw_branches:
        raise MapConfigError("config.branches: expected a non-empty list")
    branches = []
    for i, rb in enumerate(raw_branches):
        where = f"config.branches[{i}]"
        _require_keys(rb, _BRANCH_KEYS, where)
        if "interval" not in rb or "expr" not in rb:
            raise MapConfigError(f"{where}: needs 'interval' and 'expr'")
        iv = rb["interval"]
        if not isinstance(iv, (list, tuple)) or len(iv) != 2:
            raise MapConfigError(f"{where}.interval: expected [a, b]")
        a = _number(iv[0], f"{where}.interval[0]")
        b = _number(iv[1], f"{where}.interval[1]")
        if not a < b:
            raise MapConfigError(f"{where}.interval: a must be < b")
        if not isinstance(rb.get("expr"), str):
            raise MapConfigError(f"{where}.expr: expected a string")
        params = rb.get("params", {})
        if not isinstance(params, dict):
            raise MapConfigError(f"{where}.params: expected an object")
        params = {k: _number(v, f"{where}.params[{k!r}]") for k, v in params.items()}
        try:
            tree = ex.parse(rb["expr"], params)
        except ex.ExprSyntaxError as err:
            raise MapConfigError(f"{where}.expr: {err}") from err
        branches.append(Branch(a, b, rb["expr"], tree, params))

    raw_cps = config.get("critical_points", [])
    if not isinstance(raw_cps, list):
        raise MapConfigError("config.critical_points: expected a list")
    cps = []
    for i, rc in enumerate(raw_cps):
        where = f"config.critical_points[{i}]"
        _require_keys(rc, _CP_KEYS, where)
        for key in _CP_KEYS:
            if key not in rc:
                raise MapConfigError(f"{where}: missing {key!r}")
        side = rc["side"]
        if side not in ("+", "-"):
            raise MapConfigError(f"{where}.side: expected '+' or '-'")
        order = _number(rc["order"], f"{where}.order")
        if order <= 0.0:
            raise MapConfigError(f"{where}.order: must be > 0")
        cps.append(CriticalPoint(_number(rc["location"], f"{where}.location"),
                                 side, order))

    m = MapSpec(name, lo, hi, delta, tuple(branches), tuple(cps))
    _validate(m)
    return m


def load_map(path: str) -> MapSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return build_map(json.load(fh))


def _validate(m: MapSpec):
    # branch cover: ordered, adjacent, spanning [lo, hi]
    brs = m.branches
    for i in range(len(brs) - 1):
        gap = brs[i + 1].a - brs[i].b
        if abs(gap) > _BOUNDARY_TOL:
            kind = "gap" if gap > 0 else "overlap"
            raise MapValidationError(
                f"{kind} between branches {i} and {i + 1}: "
                f"{brs[i].b!r} vs {brs[i + 1].a!r}"
            )
    if abs(brs[0].a - m.lo) > _BOUNDARY_TOL or abs(brs[-1].b - m.hi) > _BOUNDARY_TOL:
        raise MapValidationError("branches do not span the domain")

    # snap critical locations onto interior boundaries; demand full coverage
    interior = [br.a for br in brs[1:]]
    snapped = []
    for cp in m.critical_points:
        match = [b for b in interior if abs(b - cp.location) <= _BOUNDARY_TOL]
        if not match:
            raise MapValidationError(
                f"critical point at {cp.location!r} is not an interior branch "
                "boundary"
            )
        snapped.append(CriticalPoint(match[0], cp.side, cp.order))
    m.critical_points = tuple(snapped)
    seen = {(cp.location, cp.side) for cp in m.critical_points}
    if len(seen) != len(m.critical_points):
        raise MapValidationError("duplicate critical point declarations")
    missing = []
    for b in interior:
        for side in ("-", "+"):
            if (b, side) not in seen:
                missing.append((b, side))
    if missing:
        raise MapValidationError(
            f"interior boundaries lack declared orders on sides: {missing}"
        )
    for cp in m.critical_points:
        if cp.degenerate:
            log.warning(
                "critical point at %r side %s has order 1 (flat-linear); "
                "treated through the singular pipeline (binding period 1)",
                cp.location, cp.side,
            )

    # monotone, twice differentiable on each open branch: one checked jet
    # over the samples; the first sample where a jet raises or gives Df = 0
    # or a non-finite Df fails the branch
    for i, br in enumerate(brs):
        width = br.b - br.a
        xs = np.linspace(br.a + 1e-9 * width, br.b - 1e-9 * width, 1024)
        (_, d1, _), fault = br._compiled.checked(xs, 2)
        bad = fault | (d1 == 0.0) | ~np.isfinite(d1)
        if bad.any():
            x = xs[np.argmax(bad)].item()
            try:
                br.jet(x)
            except (ex.NonDifferentiableError, ex.EvalDomainError) as err:
                raise MapValidationError(
                    f"branch {i} expression invalid at x={x!r}: {err}"
                ) from err
            raise MapValidationError(
                f"branch {i} has non-monotone or non-finite derivative "
                f"at x={x!r}"
            )
        if len(set(np.sign(d1).tolist())) != 1:
            raise MapValidationError(f"branch {i} is not strictly monotone")

    # one-sided images stay in the domain
    for i in range(len(brs)):
        img_lo, img_hi = m.branch_images[i]
        if img_lo < m.lo - _IMAGE_TOL or img_hi > m.hi + _IMAGE_TOL:
            raise MapValidationError(
                f"branch {i} image ({img_lo!r}, {img_hi!r}) leaves the domain"
            )

    # delta fits inside adjacent branches, neighborhoods pairwise disjoint
    _check_delta(m, m.delta)


def _check_delta(m: MapSpec, delta: float):
    for cp in m.critical_points:
        if cp.side == "+":
            br = next(b for b in m.branches if b.a == cp.location)
            if cp.location + delta > br.b + _BOUNDARY_TOL:
                raise MapValidationError(
                    f"delta={delta!r} exceeds the branch right of {cp.location!r}"
                )
        else:
            br = next(b for b in m.branches if b.b == cp.location)
            if cp.location - delta < br.a - _BOUNDARY_TOL:
                raise MapValidationError(
                    f"delta={delta!r} exceeds the branch left of {cp.location!r}"
                )
    locs = sorted({cp.location for cp in m.critical_points})
    for u, v in zip(locs, locs[1:]):
        if v - u < 2.0 * delta:
            raise MapValidationError(
                f"delta={delta!r} makes neighborhoods of {u!r} and {v!r} overlap"
            )


# ---------------------------------------------------------------------------
# built-in families

# The two-branch families on [-1, 1], critical at 0 from both sides: the
# left and right formulas, each param's default and its name in them, and
# the param that is the critical order (None: order 2).
_TWO_BRANCH = {
    "chebyshev": ("1 - 2*x^2", "1 - 2*x^2", {}, None),
    "unimodal": ("1 - a*abs(x)^l", "1 - a*abs(x)^l",
                 {"a": (2.0, "a"), "ell": (2.0, "l")}, "l"),
    "lorenz": ("1 - a*abs(x)^s", "a*abs(x)^s - 1",
               {"a": (1.9, "a"), "s": (0.6, "s")}, "s"),
}


def family_config(family: str, params=None, delta=None, name=None) -> dict:
    params = dict(params or {})

    def take(key, default):
        return float(params.pop(key, default))

    def no_more():
        if params:
            raise MapConfigError(f"{family}: unknown params {sorted(params)}")

    if family in _TWO_BRANCH:
        left, right, spec, order = _TWO_BRANCH[family]
        p = {sym: take(key, default) for key, (default, sym) in spec.items()}
        no_more()
        label = ", ".join(f"{key}={p[sym]}" for key, (_d, sym) in spec.items())
        shared = {"params": p} if p else {}
        return {
            "name": name or (f"{family}({label})" if p else family),
            "domain": [-1.0, 1.0],
            "delta": 0.05 if delta is None else delta,
            "branches": [{"interval": [-1.0, 0.0], "expr": left, **shared},
                         {"interval": [0.0, 1.0], "expr": right, **shared}],
            "critical_points": [
                {"location": 0.0, "side": side, "order": p.get(order, 2.0)}
                for side in "-+"],
        }
    if family == "singular_unimodal":
        A, s, B = take("A", 2.0), take("s", 0.5), take("B", 1.0)
        no_more()
        xstar = s / (B * (1.0 + s))
        p = {"A": A, "s": s, "B": B}
        pos = "A*abs(x)^s*(1 - B*abs(x))"
        neg = "-(A*abs(x)^s*(1 - B*abs(x)))"
        return {
            "name": name or f"singular_unimodal(A={A}, s={s}, B={B})",
            "domain": [-1.0, 1.0],
            "delta": 0.02 if delta is None else delta,
            "branches": [
                {"interval": [-1.0, -xstar], "expr": neg, "params": p},
                {"interval": [-xstar, 0.0], "expr": neg, "params": p},
                {"interval": [0.0, xstar], "expr": pos, "params": p},
                {"interval": [xstar, 1.0], "expr": pos, "params": p},
            ],
            "critical_points": [
                {"location": -xstar, "side": "-", "order": 2.0},
                {"location": -xstar, "side": "+", "order": 2.0},
                {"location": 0.0, "side": "-", "order": s},
                {"location": 0.0, "side": "+", "order": s},
                {"location": xstar, "side": "-", "order": 2.0},
                {"location": xstar, "side": "+", "order": 2.0},
            ],
        }
    raise MapConfigError(f"unknown family {family!r}")


def chebyshev_map(delta: float = 0.05) -> MapSpec:
    return build_map({"family": "chebyshev", "delta": delta})


def unimodal_map(a: float = 2.0, ell: float = 2.0, delta: float = 0.05) -> MapSpec:
    return build_map({"family": "unimodal", "params": {"a": a, "ell": ell},
                      "delta": delta})


def lorenz_map(a: float = 1.9, s: float = 0.6, delta: float = 0.05) -> MapSpec:
    return build_map({"family": "lorenz", "params": {"a": a, "s": s},
                      "delta": delta})


def singular_unimodal_map(A: float = 2.0, s: float = 0.5, B: float = 1.0,
                          delta: float = 0.02) -> MapSpec:
    return build_map({"family": "singular_unimodal",
                      "params": {"A": A, "s": s, "B": B}, "delta": delta})


# ---------------------------------------------------------------------------
# evaluation and distances

def evaluate(m: MapSpec, x: float, side: str = None) -> ex.Jet2:
    """One-sided jet of the map at x.

    side ("+" or "-") is required when x sits exactly on an interior branch
    boundary; at the domain endpoints the side is implied.  Derivatives that
    blow up (singular points) are reported as +-inf sentinels.
    """
    x = float(x)
    if x < m.lo - _IMAGE_TOL or x > m.hi + _IMAGE_TOL:
        raise ex.EvalDomainError(f"x={x!r} outside the domain [{m.lo}, {m.hi}]")
    x = min(max(x, m.lo), m.hi)
    if x == m.lo:
        return m.endpoint_jet(0, x, "+")
    if x == m.hi:
        return m.endpoint_jet(len(m.branches) - 1, x, "-")
    idx = int(np.searchsorted(m.interior_boundaries, x))
    if idx < len(m.interior_boundaries) and m.interior_boundaries[idx] == x:
        if side == "+":
            return m.endpoint_jet(idx + 1, x, "+")
        if side == "-":
            return m.endpoint_jet(idx, x, "-")
        raise ex.EvalDomainError(
            f"x={x!r} is a branch boundary: a side ('+'/'-') is required"
        )
    return m.branches[m.branch_index(x)].jet(x)


def critical_distance(m: MapSpec, x) -> float:
    """Distance from x to the critical set (locations only; sides collapse)."""
    locs = m.critical_locations
    if locs.size == 0:
        return math.inf
    if np.ndim(x) == 0:
        return float(np.min(np.abs(locs - float(x))))
    return np.min(np.abs(np.asarray(x, dtype=float)[..., None] - locs), axis=-1)


# ---------------------------------------------------------------------------
# nondegeneracy

@dataclass
class NondegeneracyReport:
    """Sampled min/max of the order-law ratios at every critical point."""

    per_point: list = field(default_factory=list)
    bound: float = ND_BOUND
    passed: bool = True
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def verify_nondegeneracy(m: MapSpec) -> NondegeneracyReport:
    """Check |f(x)-f(c)| ~ d^ell, |Df| ~ d^(ell-1), |D2f| ~ d^(ell-2).

    Samples a geometric grid at distances delta*2^-k, k < ND_STEPS, from
    each one-sided critical point.  Distances are floored at 1e-6, and the
    f ratio drops the samples where |f(x)-f(c)| is within ND_ULPS ulps of
    f(c): there the difference is double-precision cancellation noise, not
    geometry (1 - 2|x|^3 rounds to 1 below d = 8e-6).  Also reports min/max
    of d(x)*|D2f(x)|/|Df(x)| on the same grid.  A point passes when every
    ratio family has two samples or more, is finite, positive, and has
    max/min <= ND_BOUND.
    """
    report = NondegeneracyReport()
    for cp in m.critical_points:
        sgn = 1.0 if cp.side == "+" else -1.0
        fc = evaluate(m, cp.location, cp.side).value
        rows = {"f": [], "df": [], "d2f": [], "derdist": []}
        for k in range(ND_STEPS):
            d = m.delta * 2.0 ** (-k)
            if d < 1e-6:
                break
            x = cp.location + sgn * d
            j = evaluate(m, x)
            if abs(j.value - fc) > ND_ULPS * math.ulp(fc):
                rows["f"].append(abs(j.value - fc) / d ** cp.order)
            rows["df"].append(abs(j.d1) / d ** (cp.order - 1.0))
            rows["d2f"].append(abs(j.d2) / d ** (cp.order - 2.0))
            rows["derdist"].append(
                critical_distance(m, x) * abs(j.d2) / abs(j.d1)
            )
        entry = {
            "location": cp.location,
            "side": cp.side,
            "order": cp.order,
            "kind": cp.kind,
        }
        point_ok = True
        for key, vals in rows.items():
            few = len(vals) < 2
            vmin, vmax = (math.nan, math.nan) if few else (
                float(np.min(vals)), float(np.max(vals)))
            entry[f"{key}_min"], entry[f"{key}_max"] = vmin, vmax
            if few or not (math.isfinite(vmax) and vmin > 0.0
                           and vmax / vmin <= ND_BOUND):
                point_ok = False
                report.failures.append(
                    f"{cp.location!r}{cp.side}: ratio {key} " + (
                        f"has {len(vals)} sample(s) clear of the rounding "
                        "of f(c)" if few else f"in [{vmin:.6g}, {vmax:.6g}]"
                        f" violates bound {ND_BOUND}"))
        entry["passed"] = point_ok
        report.per_point.append(entry)
        report.passed = report.passed and point_ok
    return report
