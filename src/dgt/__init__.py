"""Game-theoretic community detection for dynamic directed networks.

Nodes act as selfish agents that join, leave, or switch communities to
maximize a gain-minus-loss utility; communities emerge as the equilibrium
of repeated best-response play over a sequence of graph snapshots.
"""

from .errors import (
    AuditError,
    ConfigError,
    DgtError,
    EmptyGraphError,
    FormatError,
    MetricsError,
    PreconditionError,
)
from .gain_functions import (
    GainContext,
    UtilityBreakdown,
    similarity,
    utility,
    utility_delta,
)
from .game_engine import (
    NOOP,
    Action,
    CommunityStructure,
    GameConfig,
    Join,
    Leave,
    NoOp,
    SnapshotResult,
    Switch,
    best_response,
    is_local_equilibrium,
    run_snapshot,
)
from .initialization import (
    GroundTruth,
    VariantKind,
    carry,
    init_structure,
    load_ground_truth,
    write_ground_truth,
)
from .metrics import (
    count_error,
    modularity_directed,
    modularity_undirected,
    nmi,
    write_metrics_report,
)
from .runner import derive_seeds, evaluate_outcome, run_repetition
from .snapshot_graph import (
    ChangeStats,
    SnapshotGraph,
    SnapshotSequence,
    churn_rows,
    diff,
    load_edge_stream,
    read_edge_list,
    write_churn_report,
    write_edge_list,
)
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AuditError",
    "ChangeStats",
    "CommunityStructure",
    "ConfigError",
    "DgtError",
    "EmptyGraphError",
    "FormatError",
    "GainContext",
    "GameConfig",
    "GroundTruth",
    "Join",
    "Leave",
    "MetricsError",
    "NOOP",
    "NoOp",
    "PreconditionError",
    "SnapshotGraph",
    "SnapshotResult",
    "SnapshotSequence",
    "Switch",
    "SynthConfig",
    "UtilityBreakdown",
    "VariantKind",
    "best_response",
    "carry",
    "churn_rows",
    "count_error",
    "derive_seeds",
    "diff",
    "evaluate_outcome",
    "generate",
    "init_structure",
    "is_local_equilibrium",
    "load_edge_stream",
    "load_ground_truth",
    "modularity_directed",
    "modularity_undirected",
    "nmi",
    "read_edge_list",
    "run_repetition",
    "run_snapshot",
    "similarity",
    "utility",
    "utility_delta",
    "write_churn_report",
    "write_edge_list",
    "write_ground_truth",
    "write_metrics_report",
]
