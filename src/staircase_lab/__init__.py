"""Minimal-action staircase laboratory for twist-map generating functions."""

__version__ = "0.1.0"

from .model import GeneratingModel, frenkel_kontorova, load_model, parse_model
from .solvers import SolveOptions
from .variational import (
    MinimizerSet,
    PeriodicConfiguration,
    beta_at,
    enumerate_minimizers,
    mather_gaps,
    minimize_periodic,
    order_check,
    rotation_number,
    verify_minimality,
)
from .hyperbolicity import HyperbolicityReport, full_report, monodromy, pn_barrier
from .staircase import (
    BetaTable,
    StaircaseTable,
    ac_part_probe,
    completeness_measure,
    convexity_probe,
    hausdorff_estimator,
    legendre,
    locking_intervals,
    variation_estimator,
)
from .flatness import (
    FlatnessCurve,
    action_c,
    concatenate_loop,
    flatness_bound,
    flatness_curve,
    heteroclinic_segment,
)
from .cache import BetaCache, cache_get, cache_put


def __getattr__(name):
    # staircase_lab.scan loads LAPACK, which a warm query never needs
    if name in ("ScanConfig", "load_scan_config", "parse_scan_config", "run_scan"):
        from . import scan

        return getattr(scan, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "GeneratingModel",
    "frenkel_kontorova",
    "load_model",
    "parse_model",
    "SolveOptions",
    "PeriodicConfiguration",
    "MinimizerSet",
    "minimize_periodic",
    "beta_at",
    "enumerate_minimizers",
    "verify_minimality",
    "rotation_number",
    "order_check",
    "mather_gaps",
    "HyperbolicityReport",
    "monodromy",
    "full_report",
    "pn_barrier",
    "BetaTable",
    "StaircaseTable",
    "legendre",
    "locking_intervals",
    "completeness_measure",
    "variation_estimator",
    "hausdorff_estimator",
    "convexity_probe",
    "ac_part_probe",
    "FlatnessCurve",
    "heteroclinic_segment",
    "concatenate_loop",
    "action_c",
    "flatness_curve",
    "flatness_bound",
    "BetaCache",
    "cache_get",
    "cache_put",
    "ScanConfig",
    "parse_scan_config",
    "load_scan_config",
    "run_scan",
    "__version__",
]
