"""``repro.explorer`` — PerfExplorer, the data-mining client/server (§5.3)."""

from .charts import (
    correlation_matrix, group_fraction_chart, imbalance_chart, speedup_chart,
)
from .client import AnalysisError, PerfExplorerClient
from .clustering import (
    ClusterResult, build_feature_matrix, cluster_trial, hierarchical_cluster,
    kmeans, pca_reduce, silhouette_score, summarize_clusters,
)
from .protocol import MessageStream, ProtocolError
from .results import ResultStore
from .rproxy import AnalysisBackend, NumpyAnalysisBackend
from .server import AnalysisServer, SocketServer
from .workflow import (
    WorkflowError, available_operations, run_workflow,
)

__all__ = [
    "AnalysisServer", "SocketServer",
    "PerfExplorerClient", "AnalysisError",
    "ClusterResult", "cluster_trial", "kmeans", "pca_reduce",
    "silhouette_score", "summarize_clusters", "build_feature_matrix",
    "hierarchical_cluster",
    "ResultStore", "AnalysisBackend", "NumpyAnalysisBackend",
    "MessageStream", "ProtocolError",
    "speedup_chart", "correlation_matrix", "group_fraction_chart",
    "imbalance_chart",
    "run_workflow", "available_operations", "WorkflowError",
]
