"""Exact erasure-channel analysis of GLDPC and D-GLDPC code ensembles.

The package computes EXIT functions of generalized component codes from
generator-matrix rank enumeration, evaluates the stability condition and
its closed-form threshold bound, and proves the decoding threshold from
the fixed-point polynomial of density evolution.
"""

from .codes import ComponentCode, delta_params
from .density_evolution import find_threshold
from .ensembles import Ensemble, NodeType, validate
from .exit_charts import sample_exit_chart
from .stability import gldpc_stability_bound, stability_report

__version__ = "0.1.0"

__all__ = [
    "ComponentCode",
    "Ensemble",
    "NodeType",
    "delta_params",
    "find_threshold",
    "gldpc_stability_bound",
    "sample_exit_chart",
    "stability_report",
    "validate",
]
