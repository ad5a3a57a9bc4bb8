"""Exact simulation, generator-based moment analysis and method-of-moments
calibration for the exponentially decaying self-exciting (Hawkes) process."""

from .core import (
    EventSequence,
    HawkesParams,
    count_at,
    intensity_at,
    intensity_on_grid,
    post_jump_intensities,
    validate_params,
)
from .errors import (
    CapacityExceeded,
    EmptyFile,
    ExplosionRisk,
    HawkesError,
    InsufficientData,
    NegativeInput,
    NegativeTimestamp,
    NoConvergence,
    NonPositiveBase,
    ParseError,
    WindowOutOfRange,
)
from .estimate import (
    EmpiricalMoments,
    EstimateConfig,
    EstimateReport,
    empirical_moments,
    estimate,
    solve_moment_system,
)
from .generator import (
    BivariatePolynomial,
    apply_generator,
    integrate_moments,
    integrate_polynomial_on_path,
    moment_closure,
    moment_ode_rhs,
)
from .io import parse_events
from .moments import (
    MomentTriple,
    helper_integrals,
    increment_mean_exact,
    limit_intensity_moments,
    mean_count,
    mean_intensity,
    moment_triple,
    second_moment_intensity,
    stationary_m1,
    stationary_m2,
    stationary_m3,
)
from .simulate import (
    IncrementSample,
    Trajectory,
    sampler,
    simulate_batch,
    simulate_cluster,
    simulate_exact,
    windowed_counts,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "HawkesParams", "EventSequence", "validate_params",
    "intensity_at", "intensity_on_grid", "post_jump_intensities", "count_at",
    # generator
    "BivariatePolynomial", "apply_generator", "moment_ode_rhs",
    "moment_closure", "integrate_moments", "integrate_polynomial_on_path",
    # simulate
    "Trajectory", "IncrementSample", "simulate_exact", "simulate_cluster",
    "sampler", "simulate_batch", "windowed_counts",
    # moments
    "MomentTriple", "mean_intensity", "second_moment_intensity", "mean_count",
    "increment_mean_exact", "stationary_m1", "stationary_m2", "stationary_m3",
    "moment_triple", "limit_intensity_moments", "helper_integrals",
    # estimate
    "EmpiricalMoments", "EstimateConfig", "EstimateReport",
    "empirical_moments", "solve_moment_system", "estimate",
    # io
    "parse_events",
    # errors
    "HawkesError", "ExplosionRisk", "NonPositiveBase", "NegativeInput",
    "CapacityExceeded", "WindowOutOfRange",
    "InsufficientData", "NoConvergence", "ParseError",
    "NegativeTimestamp", "EmptyFile",
]
