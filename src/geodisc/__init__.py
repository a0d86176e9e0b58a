"""Numerical toolkit for boundary regularity of holomorphic discs in convex
domains: majorant calculus on the unit disc, convex boundary geometry, metric
bounds from inscribed discs, and empirical extension probes."""

from .convex_geometry import (
    Ball,
    BoundaryFrame,
    ConvexDomainModel,
    FlatModelDomain,
    FlatSupport,
    HalfspaceIntersection,
    Polydisc,
    boundary_distance,
    boundary_frame,
    exit_time,
    inscribed_disc_radius,
    phi_alpha,
    phi_alpha_inv,
    rest_bound_check,
    rho_triangle,
    x0_cap,
)
from .disc_analysis import (
    BoundarySamples,
    ModulusFamily,
    ModulusProfile,
    UnitDiscFunction,
    boundary_samples,
    conjugate_function,
    constant_map,
    derivative_at,
    derivative_centered,
    identity_map,
    log_dini_test,
    modulus_of_continuity,
    modulus_profile,
    pz_bound,
    radial_limit,
    scalar_function,
    vector_function,
)
from .hardy_littlewood import (
    DerivMajorantFamily,
    Majorant,
    kernel_bound_check,
    majorant_from_modulus,
    omega_bound,
    phi_log_l1,
    varpi,
    verify_majorant,
)
from .kobayashi import (
    GeodesicCandidate,
    MercerFit,
    MetricBounds,
    PipelineParams,
    boundary_extension_probe,
    derivative_growth_profile,
    disc_automorphism,
    flat_slice_candidate,
    geodesic_defect,
    graham_bounds,
    mercer_fit,
    nonextending_geodesic,
    poincare_distance,
    poincare_metric,
    polydisc_distance,
    theorem_pipeline,
)
from .numerics import (
    QuadratureResult,
    RootResult,
    integrate_endpoint,
    integrate_log_moment,
    minimize_on_circle,
    solve_monotone,
)

__version__ = "0.1.0"
