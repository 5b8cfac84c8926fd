"""RSS-based localization of ground nodes from aerial anchors.

Seedable Monte Carlo library: elevation-dependent air-to-ground channel,
maximum-likelihood ranging with its closed-form error bound, least-squares
multilateration, and sweep experiments over anchor altitude, spacing and
count.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .channel import (
    DEFAULT_REFERENCE_LOSS_DB,
    ENVIRONMENTS,
    MIN_ALTITUDE_M,
    SUBURBAN,
    URBAN,
    EnvironmentParams,
    LinkGeometry,
    environment_preset,
    free_space_reference_loss,
    mean_path_loss,
    mean_rss,
    path_loss_exponent,
    prob_los,
    sample_rss,
    shadowing_sigma,
    without_shadowing,
)
from .config import ConfigError, default_config, grid_from_range, load_config
from .estimation import (
    RangeEstimate,
    SearchConfig,
    crlb_sigma,
    crlb_sigma_values,
    fisher_information_numeric,
    log_likelihood,
    mle_distance,
    mle_distance_batch,
    score,
)
from .experiments import (
    CSV_HEADER,
    AltitudeOptimum,
    CrlbPoint,
    CrlbTable,
    ExperimentConfig,
    ExperimentResult,
    SweepSpec,
    WorkerPoolError,
    optimize_altitude,
    read_results_csv,
    run_crlb_comparison,
    run_sweep,
    write_crlb_table,
    write_results,
)
from .geometry import ConstellationSpec, build_constellation, sample_disk_xy
from .localization import (
    DegenerateGeometryError,
    PositionFix,
    SolverConfig,
    multilaterate,
    multilaterate_batch,
)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
