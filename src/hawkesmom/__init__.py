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
    WindowCounts,
    empirical_moments,
    estimate,
    solve_moment_system,
    windowed_counts,
)
from .generator import (
    BivariatePolynomial,
    apply_generator,
    integrate_moments,
    moment_closure,
)
from .io import parse_events
from .moments import (
    MomentTriple,
    limit_intensity_moments,
    mean_count,
    moment_triple,
    stationary_m1,
    stationary_m2,
    stationary_m3,
)
from .simulate import (
    Trajectory,
    sampler,
    simulate_batch,
    simulate_cluster,
    simulate_exact,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "HawkesParams", "EventSequence", "validate_params",
    "intensity_at", "intensity_on_grid", "post_jump_intensities", "count_at",
    # generator
    "BivariatePolynomial", "apply_generator", "moment_closure", "integrate_moments",
    # simulate
    "Trajectory", "simulate_exact", "simulate_cluster", "sampler", "simulate_batch",
    # moments
    "MomentTriple", "mean_count", "stationary_m1", "stationary_m2", "stationary_m3",
    "moment_triple", "limit_intensity_moments",
    # estimate
    "WindowCounts", "windowed_counts", "EmpiricalMoments", "EstimateConfig",
    "EstimateReport", "empirical_moments", "solve_moment_system", "estimate",
    # io
    "parse_events",
    # errors
    "HawkesError", "ExplosionRisk", "NonPositiveBase", "NegativeInput",
    "CapacityExceeded", "WindowOutOfRange",
    "InsufficientData", "NoConvergence", "ParseError",
    "NegativeTimestamp", "EmptyFile",
]
