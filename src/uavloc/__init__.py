"""RSS-based localization of ground nodes from aerial anchors.

Seedable Monte Carlo library: elevation-dependent air-to-ground channel,
maximum-likelihood ranging with its closed-form error bound, least-squares
multilateration, and sweep experiments over anchor altitude, spacing and
count.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .channel import (
    DEFAULT_REFERENCE_LOSS_DB,
    DEFAULT_SAMPLES_PER_ANCHOR,
    ENVIRONMENTS,
    MIN_ALTITUDE_M,
    SUBURBAN,
    URBAN,
    EnvironmentParams,
    LinkGeometry,
    RssSampleSet,
    environment_preset,
    expected_path_loss,
    free_space_reference_loss,
    mean_path_loss,
    mean_rss,
    path_loss_exponent,
    prob_los,
    sample_rss,
    shadowing_sigma,
    shadowing_sigma_component,
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
    theta_from_distance,
)
from .experiments import (
    CSV_HEADER,
    AltitudeOptimum,
    CrlbPoint,
    ExperimentConfig,
    ExperimentResult,
    SweepSpec,
    WorkerPoolError,
    optimize_altitude,
    point_errors,
    read_results_csv,
    run_altitude_sweep,
    run_anchor_count_sweep,
    run_crlb_comparison,
    run_inter_distance_sweep,
    write_crlb_table,
    write_results,
)
from .geometry import (
    Anchor,
    ConstellationSpec,
    NodePosition,
    anchors_xy,
    build_constellation,
    in_coverage,
    link_geometry,
    sample_disk_xy,
    sample_nodes_uniform_disk,
)
from .localization import (
    DegenerateGeometryError,
    PositionFix,
    SolverConfig,
    localization_error,
    multilaterate,
    multilaterate_batch,
    position_error,
)

__all__ = [name for name in dir() if not name.startswith("_")]
