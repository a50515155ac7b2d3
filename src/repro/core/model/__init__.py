"""PerfDMF's common parallel-profile representation (paper §3.1/§4).

Profile data is organised by node, context, thread, metric and event;
for each combination an aggregate measurement is recorded.  The model
has two interchangeable forms: the object graph (:class:`DataSource`)
and the vectorised :class:`ColumnarTrial` for large-scale trials.
:class:`ColumnarTrial` is numpy-backed and loads on first access, so
the object graph alone (all a catalog listing touches) imports no
numpy.
"""

from ..._lazy import lazy_exports
from .callpath import (
    build_call_graph, callpath_depth, children_of, flatten_callpaths,
    is_callpath_name, join_callpath, root_events, split_callpath,
)
from .datasource import DataSource
from .derived_expr import (
    DerivedExpressionError, evaluate_metric_expression, metric_names_in,
)
from .events import CALLPATH_SEPARATOR, AtomicEvent, IntervalEvent
from .functionprofile import FunctionProfile, UserEventProfile
from .metric import TIME, Metric
from .thread import MEAN_ID, TOTAL_ID, Context, Node, Thread
from . import group

__getattr__ = lazy_exports(__name__, {"columnar": ("ColumnarTrial",)})

__all__ = [
    "DataSource", "ColumnarTrial", "Metric", "TIME",
    "IntervalEvent", "AtomicEvent", "CALLPATH_SEPARATOR",
    "FunctionProfile", "UserEventProfile",
    "Node", "Context", "Thread", "MEAN_ID", "TOTAL_ID",
    "group",
    "build_call_graph", "callpath_depth", "children_of", "flatten_callpaths",
    "is_callpath_name", "join_callpath", "root_events", "split_callpath",
    "evaluate_metric_expression", "metric_names_in", "DerivedExpressionError",
]
