"""Lattice Liouville first passage percolation toolkit.

Synthesizes Gaussian free field approximations, builds the associated
exponentially weighted shortest-path metrics, and runs the scaling and
identity experiments at desk scale.
"""

from .params import LqgParams
from .field import (
    GridSpec,
    LatticeField,
    sample_zero_boundary_gff,
    sample_whole_plane_gff,
    circle_average,
)
from .mollify import mollify_heat, mollify_heat_ladder, mollify_truncated
from .metric import MetricProblem, PathResult, MetricBall
from .scaling import ExponentFit, fit_loglog, hill_estimator
from .config import RunConfig, default_config, parse_config, serialize_config, config_hash
from .io import save_field, load_field
from .experiments import ExperimentReport, EXPERIMENTS, run_suite

__all__ = [
    "LqgParams",
    "GridSpec",
    "LatticeField",
    "sample_zero_boundary_gff",
    "sample_whole_plane_gff",
    "circle_average",
    "mollify_heat",
    "mollify_heat_ladder",
    "mollify_truncated",
    "MetricProblem",
    "PathResult",
    "MetricBall",
    "ExponentFit",
    "fit_loglog",
    "hill_estimator",
    "RunConfig",
    "default_config",
    "parse_config",
    "serialize_config",
    "config_hash",
    "save_field",
    "load_field",
    "ExperimentReport",
    "EXPERIMENTS",
    "run_suite",
]

__version__ = "0.1.0"
