"""Induced-map construction for interval maps with critical and singular points.

The package builds piecewise-monotone interval maps from expressions or
built-in families, checks the nondegeneracy and summability conditions along
critical orbits, fixes the inducing scales (delta, q0), constructs the induced
map with binding periods, bounds its distortion and variation, and estimates
absolutely continuous invariant densities.
"""

from .expr import (
    ExprError,
    ExprSyntaxError,
    UnknownIdentifierError,
    NonDifferentiableError,
    EvalDomainError,
    Jet2,
    parse,
    to_source,
    eval_jet,
    eval_value,
)
from .map_model import (
    MapConfigError,
    MapValidationError,
    Branch,
    CriticalPoint,
    MapSpec,
    NondegeneracyReport,
    build_map,
    load_map,
    chebyshev_map,
    unimodal_map,
    lorenz_map,
    singular_unimodal_map,
    evaluate,
    critical_distance,
    verify_nondegeneracy,
)
from .critical_orbit import (
    OrbitRecord,
    StarReport,
    GrowthFit,
    compute_orbit,
    orbit_records,
    star_sum,
    star_star_sum,
    growth_fit,
    write_orbit_csv,
)
from .hyperbolicity import (
    ExpansionFailure,
    DeltaSelectionError,
    KappaEstimate,
    ExpansionReport,
    estimate_kappa,
    estimate_expansion,
    choose_q0,
    compute_h_delta,
    choose_delta,
)
from .inducing import (
    BindingResult,
    InducedBranch,
    InducedPartition,
    BindingLemmaReport,
    binding_period,
    first_entry,
    inducing_time,
    build_partition,
    eval_induced,
    verify_binding_lemmas,
    write_partition_csv,
)
from .distortion import (
    NotDiffeomorphismError,
    InfiniteIntegralError,
    DistortionResult,
    SummabilityReport,
    generalized_distortion,
    sup_inf_abs_df,
    variation_bound,
    variation_exact,
    summability_report,
    bv_selftest,
)
from .density import (
    UlamTable,
    DensityEstimate,
    ulam_matrix,
    stationary_density,
    pull_back,
    invariance_residual,
    birkhoff_histogram,
    density_pipeline,
    l1_distance,
)

__version__ = "0.1.0"
