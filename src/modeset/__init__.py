"""Finite-sample valid confidence sets for the mode of a unimodal distribution.

Five constructions share one data model: a nested order-statistic spacing
interval (m1), window-count M-estimation sets with a fixed or
width-minimizing bandwidth (m2, m2a), combined per-observation p-value sets
(m3) and their Markov-bound variant (m3p), plus a lift of any of them
to multivariate star-unimodal data via a radial transform.  A Monte-Carlo
engine reproduces coverage/width studies at desk scale.
"""

from .core import (
    ConfidenceSet,
    MethodInfeasibleError,
    ModeResult,
    ModeSetError,
    make_confidence_set,
)
from .methods import compute_confidence_set, run_method
from .multivariate import (
    MembershipGrid,
    PointCloud,
    contains_mode_candidate,
    radial_transform,
    scan_region,
)
from .numerics import (
    RngStream,
    sample_uniform,
)
from .sim import (
    CoverageReport,
    FBetaDensity,
    coverage_report_csv,
    run_coverage_study,
    study_bandwidth,
)

__version__ = "0.1.0"

__all__ = [
    "ConfidenceSet",
    "CoverageReport",
    "FBetaDensity",
    "MembershipGrid",
    "MethodInfeasibleError",
    "ModeResult",
    "ModeSetError",
    "PointCloud",
    "RngStream",
    "compute_confidence_set",
    "contains_mode_candidate",
    "coverage_report_csv",
    "make_confidence_set",
    "radial_transform",
    "run_coverage_study",
    "run_method",
    "sample_uniform",
    "scan_region",
    "study_bandwidth",
]
