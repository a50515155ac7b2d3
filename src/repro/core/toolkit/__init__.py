"""The profile analysis toolkit (paper §3.1's fourth component).

Each name below loads its submodule on first access: a ParaProf view
needs ``stats``, not the scaling models or the regression detector.
"""

from ..._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "comparison": (
        "EventComparison", "biggest_changes", "compare_trials", "comparison_report",
    ),
    "cube_algebra": ("diff", "mean", "merge"),
    "modeling": (
        "RoutinePrediction", "ScalingModel", "best_model", "fit_scaling_models",
        "predict_routines", "prediction_report",
    ),
    "regression": ("Regression", "detect_regressions", "regression_report"),
    "scaling": (
        "ScalingPoint", "communication_crossover", "run_sweep", "scaling_profile",
        "strong_scaling_efficiency",
    ),
    "speedup": ("RoutineSpeedup", "SpeedupAnalyzer", "SpeedupPoint"),
    "stats": (
        "EventStatistics", "all_event_statistics", "event_statistics", "event_values",
        "group_breakdown", "load_imbalance", "thread_metric_matrix", "top_events",
    ),
})

__all__ = [
    "EventStatistics", "event_statistics", "all_event_statistics",
    "event_values", "top_events", "thread_metric_matrix",
    "group_breakdown", "load_imbalance",
    "SpeedupAnalyzer", "SpeedupPoint", "RoutineSpeedup",
    "EventComparison", "compare_trials", "biggest_changes", "comparison_report",
    "diff", "merge", "mean",
    "Regression", "detect_regressions", "regression_report",
    "ScalingModel", "fit_scaling_models", "best_model",
    "RoutinePrediction", "predict_routines", "prediction_report",
    "ScalingPoint", "scaling_profile", "communication_crossover",
    "strong_scaling_efficiency", "run_sweep",
]
