"""Numerical toolkit for boundary regularity of holomorphic discs in convex
domains: majorant calculus on the unit disc, convex boundary geometry, metric
bounds from inscribed discs, and empirical extension probes."""

from .convex_geometry import (
    Ball,
    ConvexDomainModel,
    FlatModelDomain,
    FlatSupport,
    HalfspaceIntersection,
    MetricBounds,
    Polydisc,
    boundary_distance,
    graham_bounds,
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
    disc_automorphism,
    identity_map,
    log_dini_test,
    modulus_of_continuity,
    modulus_profile,
    pz_bound,
    scalar_function,
    vector_function,
)
from .hardy_littlewood import (
    Majorant,
    kernel_bound_check,
    omega_bound,
    phi_log_l1,
    verify_majorant,
)
from .kobayashi import (
    GeodesicCandidate,
    MercerFit,
    boundary_extension_probe,
    flat_slice_candidate,
    geodesic_defect,
    mercer_fit,
    nonextending_geodesic,
    poincare_distance,
    theorem_pipeline,
)
from .numerics import (
    QuadratureResult,
    integrate_endpoint,
    integrate_log_moment,
    minimize_on_circle,
    solve_monotone,
)

__version__ = "0.1.0"
