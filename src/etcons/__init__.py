"""Fully distributed adaptive event-triggered consensus for linear
multi-agent networks: protocol design, event-exact hybrid simulation, and
verification of the theoretical guarantees."""

from .analysis import (
    EventStats,
    TheoremConstants,
    ZenoReport,
    consensus_error,
    event_stats,
    final_error_norm,
    invariance_deviation,
    leader_error,
    observer_error,
    predicted_consensus_value,
    theorem1_bound,
    zeno_report,
)
from .engine import (
    DisturbanceSpec,
    EventRecord,
    SimConfig,
    Trajectory,
    locate_event,
    simulate,
)
from .errors import (
    AssumptionError,
    ConfigError,
    DisconnectedGraphError,
    EtconsError,
    NonFiniteStateError,
    NoSpanningTreeError,
    NotDetectableError,
    NotStabilizableError,
    SimulationError,
    ZenoGuardError,
)
from .graph import (
    Graph,
    build_graph,
    generate_graph,
    is_connected,
    lambda2,
    laplacian,
)
from .linalg import (
    GainSet,
    SystemModel,
    design_gains,
    feedback_gains,
    is_hurwitz,
    matrix_exponential,
    max_eig_sym,
    observer_gain,
    solve_care,
)
from .protocols import ProtocolKernel, ProtocolParams

__version__ = "0.1.0"
