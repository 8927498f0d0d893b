"""Choosing the inducing scales and building the partition.

Walks the neighborhood-size ladder, shows why individual candidates are
rejected, then builds the induced partition at the accepted scales and
prints its anatomy: free pieces iterate a fixed number of steps, bound
pieces enter a critical neighborhood and ride out the binding period.
"""

from cusp_induce import hyperbolicity as hy
from cusp_induce import inducing as ind
from cusp_induce import map_model as mm
from cusp_induce.cli import _DELTA_LADDER


def choose(m, margin):
    print(f"== {m.name}: fixing the neighborhood size (margin {margin}) ==")
    try:
        delta, rep = hy.choose_delta(m, _DELTA_LADDER, margin=margin)
    except hy.DeltaSelectionError as err:
        print(f"  rejected everything: {err}")
        for cand, why in sorted(err.diagnostics.items(), reverse=True):
            print(f"    delta {cand}: {why}")
        return None
    print(f"  accepted delta = {delta} "
          f"(h = {rep.h_delta}, kappa ~ {rep.kappa_hat:.3f})")
    print(f"  free period q0 = {rep.q0} "
          f"(expansion fit c = {rep.c_hat:.3f}, rate {rep.lambda_hat:.3f})")
    return delta, rep.q0


def anatomy(m, delta, q0):
    part = ind.build_partition(m, delta=delta, q0=q0)
    s = part.summary()
    print(f"  partition: {s['n_branches']} branches "
          f"({s['n_free']} free, {s['n_bound']} bound), "
          f"unresolved measure {s['unresolved_measure']:.2e}")
    print(f"  min |Df-hat| bound (rounded to nearest) = {s['min_inf_df']:.3f}")
    print("  inducing-time histogram (tau: count):")
    for tau, count in sorted(s["tau_histogram"].items(), key=lambda kv: int(kv[0])):
        print(f"    {int(tau):>3d}: {count}")
    print()


def main():
    for m in (mm.chebyshev_map(), mm.lorenz_map()):
        scales = choose(m, margin=10.0)
        if scales:
            anatomy(m, *scales)

    # an impossible request: no neighborhood clears a margin this large
    choose(mm.chebyshev_map(), margin=1e9)
    print()
    print("The cusp family below has its singular point fixed by the map,")
    print("so no neighborhood can keep its image clear of the critical set:")
    choose(mm.singular_unimodal_map(), margin=10.0)


if __name__ == "__main__":
    main()
