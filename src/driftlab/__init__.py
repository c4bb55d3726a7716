"""Numerical laboratory for stochastic approximation with discontinuous drift.

Piecewise-smooth fields with their Filippov/Krasovskii set-valued
regularizations, the Robbins-Monro engine with martingale-difference noise,
sliding-mode integration of the limiting differential inclusion, window
tracking diagnostics, and occupation-measure stationarity checks.
"""

from .errors import (
    ConfigInvalid,
    DegenerateGeometry,
    DivergedIterate,
    DriftlabError,
    EmptySet,
    EmptyTrace,
    IndexOutOfRange,
    IoFailure,
    OutOfDomain,
    SlopeOverflow,
    StepTooLarge,
    UnassignedPattern,
    WindowExceedsTrace,
)
from .fields import (
    BUILTIN_FIELDS,
    AffineGuard,
    AffinePiece,
    ConstantPiece,
    ConvexVelocitySet,
    CoordinateGuard,
    NormGuard,
    PiecewiseField,
    QuadraticPiece,
    builtin_field,
    filippov_map,
    krasovskii_map,
    mollify,
)
from .sa import (
    IterateTrace,
    NoiseModel,
    StepsizeSchedule,
    make_rng,
    run_sa,
    validate_schedule,
    window_index,
)
from .inclusion import (
    SlidingDecision,
    Trajectory,
    integrate_filippov,
    integrate_tracking_selection,
    max_slope_residual,
    sliding_velocity,
)
from .tracking import TrackingReport, tracking_error, tracking_profile
from .measures import (
    EmpiricalMeasure,
    TestFunctionFamily,
    averaged_measure,
    checkpoint_residuals,
    graph_distances,
    graph_support_fraction,
    martingale_diagnostic,
    residual_decay_study,
    stationarity_residual,
    velocity_mass_split,
)
from .config import ExperimentConfig, config_from_dict, load_config
from .experiments import compare_noise_study, run_experiment

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
