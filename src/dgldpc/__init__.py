"""Exact erasure-channel analysis of GLDPC and D-GLDPC code ensembles.

The package computes EXIT functions of generalized component codes from
generator-matrix rank enumeration, evaluates the stability condition and
its closed-form threshold bound, and proves the decoding threshold from
the fixed-point polynomial of density evolution.
"""

from .binmat import BinaryMatrix, rank
from .codes import (
    ComponentCode,
    DeltaParams,
    delta_params,
    info_functions,
    min_distance_bruteforce,
    min_independent_set_size,
    split_info_functions,
)
from .density_evolution import DeRun, ThresholdResult, de_iterate, find_threshold
from .ensembles import (
    Ensemble,
    NodeType,
    design_rate,
    parse_ensemble,
    serialize_ensemble,
    validate,
)
from .exit_charts import (
    ExitCurve,
    cnd_evaluator,
    inverse_exit_cnd,
    sample_exit_chart,
    vnd_evaluator_at_q,
)
from .stability import (
    StabilityCheck,
    StabilityReport,
    dgldpc_stability_boundary,
    dgldpc_stability_check,
    gldpc_stability_bound,
    stability_report,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "ComponentCode",
    "DeRun",
    "DeltaParams",
    "Ensemble",
    "ExitCurve",
    "NodeType",
    "StabilityCheck",
    "StabilityReport",
    "ThresholdResult",
    "cnd_evaluator",
    "de_iterate",
    "delta_params",
    "design_rate",
    "dgldpc_stability_boundary",
    "dgldpc_stability_check",
    "find_threshold",
    "gldpc_stability_bound",
    "info_functions",
    "inverse_exit_cnd",
    "min_distance_bruteforce",
    "min_independent_set_size",
    "parse_ensemble",
    "rank",
    "sample_exit_chart",
    "serialize_ensemble",
    "split_info_functions",
    "stability_report",
    "validate",
    "vnd_evaluator_at_q",
]
