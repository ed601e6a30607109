"""Finite-sample valid confidence sets for the mode of a unimodal distribution.

Five constructions share one data model: a nested order-statistic spacing
interval (m1), window-count M-estimation sets with a fixed or
width-minimizing bandwidth (m2, m2a), combined per-observation p-value sets
(m3) and their dependence-robust variant (m3p), plus a lift of any of them
to multivariate star-unimodal data via a radial transform.  A Monte-Carlo
engine reproduces coverage/width studies at desk scale.
"""

from .core import (
    ConfidenceSet,
    MethodInfeasibleError,
    ModeSetError,
    SampleSplit,
    SortedSample,
    dilate,
    make_confidence_set,
    split_sample,
    venter_pilot,
)
from .edelman import (
    edelman_single_interval,
    m3_confidence_set,
    m3prime_confidence_set,
)
from .mest import (
    MEstResult,
    WindowStatistic,
    dkw_count_slack,
    hoeffding_count_slack,
    m2_adaptive_details,
    m2_details,
)
from .methods import compute_confidence_set
from .multivariate import (
    MembershipGrid,
    PointCloud,
    contains_mode_candidate,
    radial_transform,
    scan_region,
)
from .numerics import (
    RngStream,
    qbeta,
    qchisq,
    reg_inc_beta,
    sample_uniform,
)
from .sim import (
    CoverageReport,
    FBetaDensity,
    coverage_report_csv,
    run_coverage_study,
    study_bandwidth,
)
from .spacings import (
    SpacingsPlan,
    build_plan,
    lanke_inflation,
    m1_confidence_interval,
)

__version__ = "0.1.0"

__all__ = [
    "ConfidenceSet",
    "CoverageReport",
    "FBetaDensity",
    "MEstResult",
    "MembershipGrid",
    "MethodInfeasibleError",
    "ModeSetError",
    "PointCloud",
    "RngStream",
    "SampleSplit",
    "SortedSample",
    "SpacingsPlan",
    "WindowStatistic",
    "build_plan",
    "compute_confidence_set",
    "contains_mode_candidate",
    "coverage_report_csv",
    "dilate",
    "dkw_count_slack",
    "edelman_single_interval",
    "hoeffding_count_slack",
    "lanke_inflation",
    "m1_confidence_interval",
    "m2_adaptive_details",
    "m2_details",
    "m3_confidence_set",
    "m3prime_confidence_set",
    "make_confidence_set",
    "qbeta",
    "qchisq",
    "radial_transform",
    "reg_inc_beta",
    "run_coverage_study",
    "sample_uniform",
    "scan_region",
    "split_sample",
    "study_bandwidth",
    "venter_pilot",
]
