"""The scalar orbit walks that inducing's batched passes replaced, kept as
the reference they are tested against.

``free_orbit`` walks one point with one scalar jet per step, each on the
branch holding it (evaluate, which raises EvalDomainError on an interior
boundary) and clamped to the domain, until it enters a neighborhood.
``eval_induced`` composes tau scalar jets along the same positional rule.
"""

from cusp_induce import inducing as ind
from cusp_induce.map_model import evaluate


def free_orbit(m, x, delta, q0):
    """(l, f^l(x)) for the first entry l < q0, or (None, f^q0(x))."""
    y = float(x)
    for l in range(int(q0)):
        if any(cp.contains(y, delta) for cp in m.critical_points):
            return l, y
        y = evaluate(m, y).value
        y = min(max(y, m.lo), m.hi)
    return None, y


def first_entry(m, x, delta, q0):
    return free_orbit(m, x, delta, q0)[0]


def inducing_time(m, x, delta, q0, records=None, p_max=60):
    l0, y = free_orbit(m, x, delta, q0)
    if l0 is None:
        return int(q0)
    return l0 + ind.binding_period(m, y, delta, records, p_max).p


def eval_induced(m, partition, x):
    """(f-hat(x), |Df-hat(x)|, tau) by tau scalar jets."""
    br = partition.locate(x)
    y = float(x)
    prod = 1.0
    for _ in range(br.tau):
        jet = evaluate(m, y)
        prod *= jet.d1
        y = jet.value
    return y, abs(prod), br.tau
