"""Distortion products and variation bounds on iterated branches.

The quadratic benchmark has |Df| = 4|x|, so short products have closed
forms that the generalized-distortion routine must reproduce exactly.
The second half samples random intervals and inducing depths, comparing
the a-priori variation bound against quadrature of the true variation,
then replays the binding-phase inequalities on a freshly built partition.
"""

import numpy as np

from cusp_induce import distortion as di
from cusp_induce import inducing as ind
from cusp_induce import map_model as mm


def closed_forms(m):
    print("== closed-form checks on [0.2, 0.3] ==")
    one = di.generalized_distortion(m, (0.2, 0.3), 1)
    two = di.generalized_distortion(m, (0.2, 0.3), 2)
    print(f"  one step : {one.value:.12f}  (exactly 0.3/0.2 = 1.5)")
    print(f"  two steps: {two.value:.12f}  (exactly 1.5 * 0.92/0.82 = 69/41)")
    print(f"  variation of 1/|Df| : {di.variation_exact(m, (0.2, 0.3), 1):.12f}"
          "  (exactly 1/0.8 - 1/1.2 = 5/12)")
    print(f"  a-priori bound      : {di.variation_bound(m, (0.2, 0.3), 1):.12f}")
    print()


def random_cases(m, n=12):
    print(f"== {n} random (interval, depth) cases ==")
    print("  interval              l   exact        bound        ratio")
    rng = np.random.default_rng(8)
    shown = 0
    while shown < n:
        a = float(rng.uniform(m.lo, m.hi - 0.05))
        b = a + float(rng.uniform(0.005, 0.05))
        l = int(rng.integers(1, 5))
        try:
            exact = di.variation_exact(m, (a, b), l)
            bound = di.variation_bound(m, (a, b), l)
        except di.NotDiffeomorphismError:
            continue
        print(f"  [{a:+.4f}, {b:+.4f}]   {l}   {exact:<11.5g}  "
              f"{bound:<11.5g}  {exact / bound:.3f}")
        shown += 1
    print()


def binding_replay(m):
    print("== binding-phase inequalities on a fresh partition ==")
    part = ind.build_partition(m, delta=0.05, q0=5)
    rep = ind.verify_binding_lemmas(m, part, n_samples=400)
    print(f"  shadowing ratio max      : {rep.ratio_max:.4f} (needs <= 1)")
    print(f"  first-segment distortion : {rep.gamma_hat:.4f} (finite)")
    print(f"  sandwich constants       : [{rep.sandwich_c1:.3f}, "
          f"{rep.sandwich_c2:.3f}]")
    print(f"  min |Df-hat| bound       : {rep.min_inf_df:.3f} (rounded to "
          "nearest, needs >= 2)")
    print(f"  verdict: {'pass' if rep.passed else rep.witnesses}")


def main():
    m = mm.chebyshev_map()
    closed_forms(m)
    random_cases(m)
    binding_replay(m)


if __name__ == "__main__":
    main()
